// Unit tests for the AndroidManifest analogue.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "manifest/manifest.hpp"

namespace dydroid::manifest {
namespace {

Manifest make_sample() {
  Manifest m;
  m.package = "com.example.game";
  m.version_name = "2.3";
  m.min_sdk = 16;
  m.application_name = "com.shield.Container";
  m.add_permission(kInternet);
  m.add_permission(kReadPhoneState);
  m.components.push_back(
      Component{ComponentKind::Activity, "com.example.game.Main", true});
  m.components.push_back(
      Component{ComponentKind::Service, "com.example.game.Sync", false});
  m.components.push_back(
      Component{ComponentKind::Receiver, "com.example.game.Boot", false});
  return m;
}

TEST(Manifest, TextRoundTrip) {
  const auto m = make_sample();
  const auto back = Manifest::from_text(m.to_text());
  EXPECT_EQ(back.package, m.package);
  EXPECT_EQ(back.version_name, "2.3");
  EXPECT_EQ(back.min_sdk, 16);
  EXPECT_EQ(back.application_name, "com.shield.Container");
  EXPECT_EQ(back.permissions, m.permissions);
  ASSERT_EQ(back.components.size(), 3u);
  EXPECT_EQ(back.components[0].name, "com.example.game.Main");
  EXPECT_TRUE(back.components[0].launcher);
  EXPECT_EQ(back.components[1].kind, ComponentKind::Service);
  EXPECT_FALSE(back.components[1].launcher);
}

TEST(Manifest, EmptyApplicationNameOmitted) {
  Manifest m;
  m.package = "a.b";
  const auto text = m.to_text();
  EXPECT_EQ(text.find("name=\""), std::string::npos);
  EXPECT_TRUE(Manifest::from_text(text).application_name.empty());
}

TEST(Manifest, AddPermissionIdempotent) {
  Manifest m;
  m.add_permission(kInternet);
  m.add_permission(kInternet);
  EXPECT_EQ(m.permissions.size(), 1u);
  EXPECT_TRUE(m.has_permission(kInternet));
  EXPECT_FALSE(m.has_permission(kSendSms));
}

TEST(Manifest, LauncherActivityFound) {
  const auto m = make_sample();
  const auto* launcher = m.launcher_activity();
  ASSERT_NE(launcher, nullptr);
  EXPECT_EQ(launcher->name, "com.example.game.Main");
}

TEST(Manifest, NoLauncherReturnsNull) {
  Manifest m;
  m.package = "a.b";
  m.components.push_back(
      Component{ComponentKind::Activity, "a.b.Hidden", false});
  EXPECT_EQ(m.launcher_activity(), nullptr);
}

TEST(Manifest, HasComponent) {
  const auto m = make_sample();
  EXPECT_TRUE(m.has_component("com.example.game.Sync"));
  EXPECT_FALSE(m.has_component("com.example.game.Missing"));
}

// The ParseError message of parsing `text`, or "no error".
std::string parse_error(std::string_view text) {
  try {
    (void)Manifest::from_text(text);
  } catch (const support::ParseError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Manifest, AttributeMatchesTheFirstNameEqualsQuote) {
  // An attribute is found by the first `name="` on its line, so an
  // attribute whose name ends in `name` shadows a later `name`.
  const auto m = Manifest::from_text(
      "<manifest package=\"a.b\">\n"
      "  <activity xname=\"a\" name=\"b\"/>\n"
      "  <service name=\"c\" xname=\"d\"/>\n");
  ASSERT_EQ(m.components.size(), 2u);
  EXPECT_EQ(m.components[0].name, "a");
  EXPECT_EQ(m.components[1].name, "c");
}

TEST(Manifest, LastLineNeedsNoNewline) {
  const auto m = Manifest::from_text(
      "<manifest package=\"a.b\">\n  <uses-permission name=\"p.q\"/>");
  EXPECT_EQ(m.package, "a.b");
  EXPECT_EQ(m.permissions, std::vector<std::string>{"p.q"});
}

TEST(Manifest, CrlfLineEndsAndBlankLinesParseAsLf) {
  const auto lf = make_sample().to_text();
  std::string crlf = "\r\n\n  \t\r\n";
  for (const char c : lf) {
    if (c == '\n') {
      crlf += "\r\n\r\n";  // a CRLF line end, then a blank CRLF line
    } else {
      crlf += c;
    }
  }
  EXPECT_EQ(Manifest::from_text(crlf).to_text(), lf);
}

TEST(Manifest, MissingPackageThrows) {
  EXPECT_THROW((void)Manifest::from_text("<application/>"),
               support::ParseError);
}

TEST(Manifest, BadMinSdkThrows) {
  const auto text =
      "<manifest package=\"a.b\">\n  <uses-sdk minSdkVersion=\"abc\"/>\n";
  EXPECT_THROW((void)Manifest::from_text(text), support::ParseError);
  EXPECT_EQ(parse_error(text), "manifest: bad minSdkVersion: abc");
  EXPECT_EQ(parse_error("<manifest package=\"a.b\">\n"
                        "<uses-sdk minSdkVersion=\"99999999999\"/>"),
            "manifest: bad minSdkVersion: 99999999999");
}

TEST(Manifest, ComponentWithoutNameThrows) {
  const auto text = "<manifest package=\"a.b\">\n  <activity launcher=\"true\"/>\n";
  EXPECT_THROW((void)Manifest::from_text(text), support::ParseError);
}

TEST(Manifest, UnterminatedAttributeThrows) {
  EXPECT_THROW((void)Manifest::from_text("<manifest package=\"a.b>\n"),
               support::ParseError);
  EXPECT_EQ(parse_error("<manifest package=\"a.b>\n"),
            "manifest: unterminated attribute package");
  EXPECT_EQ(parse_error("<manifest package=\"a.b\">\n  <receiver name=\"x"),
            "manifest: unterminated attribute name");
}

}  // namespace
}  // namespace dydroid::manifest

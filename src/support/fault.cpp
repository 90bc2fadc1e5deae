#include "support/fault.hpp"

#include <charconv>
#include <cstdio>

#include "support/trace.hpp"

namespace dydroid::support {

namespace {

struct SiteName {
  FaultSite site;
  std::string_view name;
};

constexpr std::array<SiteName, kFaultSiteCount> kSiteNames = {{
    {FaultSite::kApkDeserialize, "apk.deserialize"},
    {FaultSite::kManifestParse, "manifest.parse"},
    {FaultSite::kDexParse, "dex.parse"},
    {FaultSite::kRewriteRepack, "rewrite.repack"},
    {FaultSite::kDeviceBoot, "device.boot"},
    {FaultSite::kDeviceInstall, "device.install"},
    {FaultSite::kInterceptorIo, "interceptor.io"},
    {FaultSite::kNativeLoad, "native.load"},
    {FaultSite::kJournalAppend, "journal.append"},
    {FaultSite::kDriverKill, "driver.kill"},
    {FaultSite::kCacheRead, "cache.read"},
    {FaultSite::kCacheWrite, "cache.write"},
    {FaultSite::kSandboxCrash, "sandbox.crash"},
    {FaultSite::kPoolSpawn, "sandbox.pool.spawn"},
    {FaultSite::kPoolRpc, "sandbox.pool.rpc"},
    {FaultSite::kPoolRecycle, "sandbox.pool.recycle"},
}};

/// splitmix64-style avalanche; the decision function's mixing core.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Pure decision draw in [0,1) from (seed, site, hit). Order-independent:
/// hitting sites in any interleaving yields identical per-hit draws.
double decision_draw(std::uint64_t seed, FaultSite site, std::uint32_t hit) {
  std::uint64_t h = mix64(seed);
  h = mix64(h ^ (static_cast<std::uint64_t>(site) + 1));
  h = mix64(h ^ (static_cast<std::uint64_t>(hit) << 8));
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

thread_local FaultSession* t_session = nullptr;

}  // namespace

const std::array<FaultSite, kFaultSiteCount>& all_fault_sites() {
  static const std::array<FaultSite, kFaultSiteCount> sites = [] {
    std::array<FaultSite, kFaultSiteCount> out{};
    for (std::size_t i = 0; i < kFaultSiteCount; ++i) out[i] = kSiteNames[i].site;
    return out;
  }();
  return sites;
}

std::string_view fault_site_name(FaultSite site) {
  for (const auto& entry : kSiteNames) {
    if (entry.site == site) return entry.name;
  }
  return "?";
}

Result<FaultSite> fault_site_from_name(std::string_view name) {
  for (const auto& entry : kSiteNames) {
    if (entry.name == name) return entry.site;
  }
  return Result<FaultSite>::failure("unknown fault site: " + std::string(name));
}

// ---- FaultPlan -------------------------------------------------------------

void FaultPlan::set(FaultSite site, FaultSpec spec) {
  specs_[static_cast<std::size_t>(site)] = spec;
}

const FaultSpec& FaultPlan::spec(FaultSite site) const {
  return specs_[static_cast<std::size_t>(site)];
}

bool FaultPlan::empty() const {
  for (const auto& s : specs_) {
    if (s.mode != FaultSpec::Mode::kNever) return false;
  }
  return true;
}

namespace {

Result<FaultSpec> parse_mode(std::string_view text) {
  if (text == "always") return FaultSpec::always();
  if (text == "never") return FaultSpec::never();
  if (text.starts_with("nth:")) {
    const auto digits = text.substr(4);
    std::uint32_t n = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), n);
    if (ec != std::errc() || ptr != digits.data() + digits.size() || n == 0) {
      return Result<FaultSpec>::failure("bad nth count: " + std::string(text));
    }
    return FaultSpec::on_nth(n);
  }
  if (text.starts_with("p:")) {
    const auto digits = text.substr(2);
    double p = 0.0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), p);
    if (ec != std::errc() || ptr != digits.data() + digits.size() || p < 0.0 ||
        p > 1.0) {
      return Result<FaultSpec>::failure("bad probability: " +
                                        std::string(text));
    }
    return FaultSpec::with_probability(p);
  }
  return Result<FaultSpec>::failure("bad fault mode: " + std::string(text) +
                                    " (want always, nth:<N> or p:<float>)");
}

}  // namespace

Result<FaultPlan> FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string_view::npos) end = text.size();
    const auto entry = text.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Result<FaultPlan>::failure("fault entry missing '=': " +
                                        std::string(entry));
    }
    const auto site = fault_site_from_name(entry.substr(0, eq));
    if (!site.ok()) return Result<FaultPlan>::failure(site.error());
    const auto spec = parse_mode(entry.substr(eq + 1));
    if (!spec.ok()) return Result<FaultPlan>::failure(spec.error());
    plan.set(site.value(), spec.value());
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const auto& entry : kSiteNames) {
    const auto& s = spec(entry.site);
    if (s.mode == FaultSpec::Mode::kNever) continue;
    if (!out.empty()) out += ',';
    out += entry.name;
    out += '=';
    switch (s.mode) {
      case FaultSpec::Mode::kNever: break;
      case FaultSpec::Mode::kAlways: out += "always"; break;
      case FaultSpec::Mode::kNth:
        out += "nth:" + std::to_string(s.nth);
        break;
      case FaultSpec::Mode::kProbability: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "p:%g", s.probability);
        out += buf;
        break;
      }
    }
  }
  return out;
}

// ---- FaultSession ----------------------------------------------------------

std::uint64_t fault_session_seed(std::uint64_t app_seed,
                                 std::uint32_t attempt) {
  return mix64(app_seed ^ (static_cast<std::uint64_t>(attempt) << 32));
}

FaultSession::FaultSession(const FaultPlan& plan, std::uint64_t seed)
    : plan_(&plan), seed_(seed) {}

bool FaultSession::should_fire(FaultSite site) {
  const auto index = static_cast<std::size_t>(site);
  const std::uint32_t hit = ++hits_[index];
  const FaultSpec& spec = plan_->spec(site);
  bool fire = false;
  switch (spec.mode) {
    case FaultSpec::Mode::kNever: break;
    case FaultSpec::Mode::kAlways: fire = true; break;
    case FaultSpec::Mode::kNth: fire = (hit == spec.nth); break;
    case FaultSpec::Mode::kProbability:
      fire = decision_draw(seed_, site, hit) < spec.probability;
      break;
  }
  if (fire) ++fired_;
  return fire;
}

// ---- ambient scope ---------------------------------------------------------

FaultScope::FaultScope(FaultSession* session) : previous_(t_session) {
  t_session = session;
}

FaultScope::~FaultScope() { t_session = previous_; }

FaultSession* current_fault_session() { return t_session; }

bool fault_fire(FaultSite site) {
  FaultSession* session = t_session;
  if (session == nullptr) return false;  // production fast path
  const bool fired = session->should_fire(site);
  // Fault-fire accounting (docs/OBSERVABILITY.md): only reached with an
  // ambient session installed, so the production fast path stays a single
  // branch.
  if (fired) count("fault.fired");
  return fired;
}

std::string fault_message(FaultSite site) {
  return "fault(" + std::string(fault_site_name(site)) + "): injected failure";
}

}  // namespace dydroid::support

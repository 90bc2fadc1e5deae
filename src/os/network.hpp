// Simulated network: the payloads a remote server hosts, keyed by URL.
//
// A payload is data: the run's os::Scenario decides what is hosted, and the
// paper's Bouncer-evasion gate (§III-B: "The server decides whether or not
// to send App_L the link to the copy of App_M") is a URL the scenario does
// not host. Every fetch is recorded for the measurement log.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/blob.hpp"
#include "support/error.hpp"

namespace dydroid::os {

class SystemServices;

struct FetchRecord {
  std::string url;
  bool succeeded = false;
  std::size_t bytes = 0;
};

class Network {
 public:
  explicit Network(const SystemServices* services) : services_(services) {}

  /// Serve `payload` at a URL.
  void host(std::string_view url, support::Blob payload);

  /// Fetch a URL: a view of the hosted payload, no copy. Fails when the
  /// device has no connectivity or the URL is not hosted.
  support::Result<support::Blob> fetch(std::string_view url);

  [[nodiscard]] const std::vector<FetchRecord>& fetch_log() const {
    return log_;
  }

 private:
  const SystemServices* services_;
  std::map<std::string, support::Blob, std::less<>> payloads_;
  std::vector<FetchRecord> log_;
};

}  // namespace dydroid::os

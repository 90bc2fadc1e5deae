// Simulated network: a registry of remote servers keyed by URL.
//
// Payloads can be static bytes or a callable — the callable form models the
// server-side gating used in the paper's Bouncer-evasion experiment (§III-B:
// "The server decides whether or not to send App_L the link to the copy of
// App_M"). Every fetch is recorded for the measurement log.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/bytes.hpp"
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

  /// Serve static bytes at a URL.
  void host(std::string_view url, support::Bytes payload);
  /// Serve a dynamic payload; return nullopt to refuse (404 / gated).
  using Handler = std::function<std::optional<support::Bytes>()>;
  void host_dynamic(std::string_view url, Handler handler);

  /// Fetch a URL. Fails when the device has no connectivity, the URL is not
  /// hosted, or a dynamic handler refuses.
  support::Result<support::Bytes> fetch(std::string_view url);

  [[nodiscard]] const std::vector<FetchRecord>& fetch_log() const {
    return log_;
  }

  [[nodiscard]] bool hosts(std::string_view url) const {
    return handlers_.find(std::string(url)) != handlers_.end();
  }

 private:
  const SystemServices* services_;
  std::map<std::string, Handler> handlers_;
  std::vector<FetchRecord> log_;
};

}  // namespace dydroid::os

#include "os/network.hpp"

#include "os/services.hpp"

namespace dydroid::os {

using support::Bytes;
using support::Result;

void Network::host(std::string_view url, Bytes payload) {
  handlers_[std::string(url)] = [payload = std::move(payload)]() {
    return std::optional<Bytes>(payload);
  };
}

void Network::host_dynamic(std::string_view url, Handler handler) {
  handlers_[std::string(url)] = std::move(handler);
}

Result<Bytes> Network::fetch(std::string_view url) {
  FetchRecord record;
  record.url = std::string(url);
  if (services_ != nullptr && !services_->has_connectivity()) {
    log_.push_back(record);
    return Result<Bytes>::failure("network: no connectivity");
  }
  const auto it = handlers_.find(std::string(url));
  if (it == handlers_.end()) {
    log_.push_back(record);
    return Result<Bytes>::failure("network: 404 " + std::string(url));
  }
  auto payload = it->second();
  if (!payload.has_value()) {
    log_.push_back(record);
    return Result<Bytes>::failure("network: server refused " +
                                  std::string(url));
  }
  record.succeeded = true;
  record.bytes = payload->size();
  log_.push_back(record);
  return *std::move(payload);
}

}  // namespace dydroid::os

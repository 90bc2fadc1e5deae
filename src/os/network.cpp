#include "os/network.hpp"

#include "os/services.hpp"

namespace dydroid::os {

using support::Blob;
using support::Result;

void Network::host(std::string_view url, Blob payload) {
  payloads_.insert_or_assign(std::string(url), std::move(payload));
}

Result<Blob> Network::fetch(std::string_view url) {
  FetchRecord record;
  record.url = std::string(url);
  if (services_ != nullptr && !services_->has_connectivity()) {
    log_.push_back(record);
    return Result<Blob>::failure("network: no connectivity");
  }
  const auto it = payloads_.find(url);
  if (it == payloads_.end()) {
    log_.push_back(record);
    return Result<Blob>::failure("network: 404 " + std::string(url));
  }
  record.succeeded = true;
  record.bytes = it->second.size();
  log_.push_back(record);
  return it->second;
}

}  // namespace dydroid::os

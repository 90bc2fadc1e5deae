#include "core/download_tracker.hpp"

#include <deque>

namespace dydroid::core {

std::string DownloadTracker::key_of(const vm::FlowNode& node) {
  if (node.kind == vm::FlowNodeKind::File) return "F:" + node.label;
  return "O:" + std::to_string(node.object_id);
}

void DownloadTracker::add_url(const vm::FlowNode& node) {
  url_of_node_[key_of(node)] = node.label;
  reverse_.try_emplace(key_of(node));
}

void DownloadTracker::add_flow(const vm::FlowNode& from,
                               const vm::FlowNode& to) {
  if (from.kind == vm::FlowNodeKind::Url) add_url(from);
  reverse_[key_of(to)].insert(key_of(from));
  reverse_.try_emplace(key_of(from));
}

std::optional<std::string> DownloadTracker::origin_url(
    const std::string& file_path) const {
  const auto start = "F:" + file_path;
  if (reverse_.find(start) == reverse_.end()) return std::nullopt;
  std::set<std::string> seen{start};
  std::deque<std::string> frontier{start};
  while (!frontier.empty()) {
    const auto node = frontier.front();
    frontier.pop_front();
    const auto url = url_of_node_.find(node);
    if (url != url_of_node_.end()) return url->second;
    const auto preds = reverse_.find(node);
    if (preds == reverse_.end()) continue;
    for (const auto& p : preds->second) {
      if (seen.insert(p).second) frontier.push_back(p);
    }
  }
  return std::nullopt;
}

}  // namespace dydroid::core

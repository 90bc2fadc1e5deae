// Download tracker (paper Table I): a flow graph with URL sources and File
// sinks. Nodes are objects identified by type + hash code (VM object id) or
// files identified by path; edges are the instrumented flows
// URL→InputStream→Buffer→OutputStream→File plus stream wrapping and
// File→File copies/renames. Querying a file's origin URL answers the
// provenance question: locally packed vs. remotely fetched.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>

#include "vm/instrumentation.hpp"

namespace dydroid::core {

class DownloadTracker {
 public:
  void add_url(const vm::FlowNode& node);
  void add_flow(const vm::FlowNode& from, const vm::FlowNode& to);

  /// The URL a file's content was (transitively) fetched from, or nullopt
  /// for locally produced files.
  [[nodiscard]] std::optional<std::string> origin_url(
      const std::string& file_path) const;

 private:
  static std::string key_of(const vm::FlowNode& node);

  // Reverse adjacency: to-key -> set of from-keys (provenance walks
  // backwards from the file).
  std::map<std::string, std::set<std::string>> reverse_;
  std::map<std::string, std::string> url_of_node_;  // url-node key -> spec
};

}  // namespace dydroid::core

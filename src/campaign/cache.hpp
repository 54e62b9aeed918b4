// Content-addressed result cache for campaigns (DESIGN.md §11).
//
// A campaign's identity is the 64-bit FNV-1a hash of its parameter object
// plus seed and engine provenance (whatever the caller folds into
// `params` -- the service uses spec.params verbatim, the same object the
// campaign journal is keyed by).  One cache entry is one directory:
//
//   <root>/<hex64>/meta.json      {"cache":"rr-campaign-cache","version":1,
//                                  "campaign":"<hex64>","name":...,
//                                  "scenarios":N,"params":{...},
//                                  "outcome":"clean",
//                                  "result_hash":"<hex16>"}
//   <root>/<hex64>/result.jsonl   the canonical entries, one JSON
//                                 line per scenario in index order --
//                                 byte-identical to an uninterrupted run
//   <root>/<hex64>/report.json    the rr-run-report of the populating run
//   <root>/<hex64>/report.md      its Markdown sibling
//
// Publish is crash-safe and race-safe: files are staged into a temp
// directory in the cache root and rename(2)d into place under the cache
// lock file, so a reader either sees no entry or a complete one, and two
// processes finishing the same campaign publish exactly once.  Only
// clean runs are published -- a degraded result must not be served
// forever.  Lookup re-validates the stored campaign id and params AND
// the result.jsonl content hash recorded in meta ("result_hash", FNV-1a
// 64 of the result bytes) before serving, so a truncated, tampered, or
// bit-flipped entry degrades to a miss (counted in
// `campaign.cache.corrupt`), never to wrong bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/json.hpp"

namespace rr::campaign {

struct CacheEntry {
  std::string dir;          ///< <root>/<hex64>
  std::string result_path;  ///< canonical entries (JSONL)
  std::string report_path;  ///< rr-run-report JSON
  Json meta;                ///< parsed meta.json
  // Entry contents, read and content-hash-validated during lookup, so
  // serving a hit never touches the filesystem again (and thus cannot
  // fail after the hit was announced).
  std::string result_bytes;  ///< result.jsonl, hash-verified against meta
  std::string report_json;   ///< report.json bytes
  std::string report_md;     ///< report.md bytes
};

class ResultCache {
 public:
  explicit ResultCache(std::string root);

  const std::string& root() const { return root_; }
  std::string entry_dir(std::uint64_t campaign) const;

  /// Entry for this campaign, or nullopt on miss.  An entry whose meta is
  /// unreadable, names a different campaign, disagrees with `params`, or
  /// whose result.jsonl bytes no longer hash to meta's "result_hash"
  /// (bit rot, truncation, tampering -- counted in
  /// `campaign.cache.corrupt`) is a miss (and logged): serving wrong
  /// bytes is worse than recomputing.  A hit carries the verified file
  /// contents.
  std::optional<CacheEntry> lookup(std::uint64_t campaign,
                                   const Json& params) const;

  /// Publish a completed campaign.  `meta` must carry "campaign" (hex64),
  /// "scenarios", and "params"; result_bytes is the canonical entries
  /// JSONL; report/report_md the run report pair.  The content hash of
  /// `result_bytes` is recorded into the stored meta as "result_hash".
  /// Returns true when the entry exists afterwards (published now, or an
  /// identical-identity racer won); false on I/O failure -- in which
  /// case no partial entry exists (files are staged and the final
  /// rename either happened or did not).
  bool publish(std::uint64_t campaign, const Json& meta,
               std::string_view result_bytes, std::string_view report_json,
               std::string_view report_md);

 private:
  std::string root_;
};

}  // namespace rr::campaign

#pragma once

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "runner/partition_cache.h"
#include "runner/result_sink.h"
#include "runner/sweep_runner.h"

namespace hetpipe::runner {

// Strict base-10 integer parse for flag values: the whole token must be an
// (optionally negative) integer that fits an int. Returns false on an empty
// token, junk ("abc", "3x"), or overflow — std::atoi would silently map all
// of those to 0 or truncate.
bool ParseIntFlag(const std::string& text, int* value);

// The flags shared by every bench binary:
//   --threads=N       sweep-runner worker threads (default: hardware)
//   --out=PATH        emit rows to PATH in the format its extension names:
//                     .jsonl/.json (JSON Lines), .csv, or .hds (the columnar
//                     result store, src/store/). Repeatable; combines with
//                     --json/--csv, which remain as stdout-capable aliases.
//   --json[=PATH]     emit JSON Lines rows (default: stdout)
//   --csv[=PATH]      emit CSV rows (default: stdout)
//   --cache-file=PATH disk-persistent partition cache: loaded before the
//                     sweep (a missing file starts cold; a corrupted or
//                     version-mismatched one is rejected with a warning) and
//                     saved back on exit, so repeated figure runs skip the
//                     GPU-order search entirely. A file that failed to load
//                     is only rewritten once the run has new entries to
//                     save — never clobbered with an empty cache.
// Unknown arguments are left for the binary's own use (in order) in `rest`.
class BenchArgs {
 public:
  BenchArgs() = default;
  static BenchArgs Parse(int argc, char** argv);
  // Saves the --cache-file cache back to disk (when the flag was given).
  ~BenchArgs();

  BenchArgs(BenchArgs&&) = default;
  BenchArgs& operator=(BenchArgs&&) = default;

  // Sweep options wired to the parsed flags; sink() is null when no output
  // flag was given, cache is null without --cache-file. The returned pointers
  // stay owned by this object.
  SweepOptions sweep_options();
  ResultSink* sink();
  // The --cache-file cache (null when the flag is absent).
  PartitionCache* cache() { return cache_.get(); }
  // The --cache-file path ("" when the flag is absent); hetpipe_serve hands
  // it to the server's periodic background saver.
  const std::string& cache_path() const { return cache_path_; }

  int threads = 0;
  std::vector<std::string> rest;

 private:
  // Returns stdout for ""/"-", else the opened file (warning on failure).
  std::ostream* OpenOutput(const std::string& path);
  // --out: appends the sink named by `path`'s extension (exit 2 on an
  // unrecognized or missing extension — a silent default would write a
  // format the caller did not ask for).
  void AddOut(const std::string& path);

  std::vector<std::unique_ptr<std::ofstream>> files_;
  std::vector<std::unique_ptr<ResultSink>> sinks_;
  MultiSink multi_;
  std::string cache_path_;
  bool cache_load_failed_ = false;
  std::unique_ptr<PartitionCache> cache_;
};

}  // namespace hetpipe::runner

#include "runner/cli.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "store/extent_writer.h"

namespace hetpipe::runner {
namespace {

// Matches --flag / --flag=value; value is "" for the bare form.
bool MatchFlag(const std::string& arg, const std::string& flag, std::string* value) {
  const std::string prefix = "--" + flag;
  if (arg == prefix) {
    value->clear();
    return true;
  }
  if (arg.rfind(prefix + "=", 0) == 0) {
    *value = arg.substr(prefix.size() + 1);
    return true;
  }
  return false;
}

}  // namespace

bool ParseIntFlag(const std::string& text, int* value) {
  const char* begin = text.c_str();
  const auto [ptr, ec] = std::from_chars(begin, begin + text.size(), *value);
  return ec == std::errc() && ptr == begin + text.size() && !text.empty();
}

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (MatchFlag(arg, "threads", &value)) {
      if (!ParseIntFlag(value, &args.threads)) {
        // std::atoi would map "abc" to 0 (= hardware concurrency) silently;
        // a bad thread count must be a loud usage error instead.
        std::fprintf(stderr, "error: --threads needs an integer, got \"%s\"\n", value.c_str());
        std::exit(2);
      }
    } else if (MatchFlag(arg, "cache-file", &value)) {
      if (value.empty()) {
        std::fprintf(stderr, "error: --cache-file needs a path\n");
        std::exit(2);
      }
      args.cache_path_ = value;
      args.cache_ = std::make_unique<PartitionCache>();
      std::string load_error;
      if (args.cache_->Load(value, &load_error)) {
        std::fprintf(stderr, "cache-file %s: loaded %lld entries\n", value.c_str(),
                     static_cast<long long>(args.cache_->size()));
      } else if (std::ifstream(value).good()) {
        // A present-but-unusable file is rejected cleanly: warn and run cold.
        // The destructor only rewrites it once the run has fresh entries —
        // e.g. a version-mismatched file a newer binary can still read must
        // not be clobbered by an empty cache.
        args.cache_load_failed_ = true;
        std::fprintf(stderr, "warning: ignoring cache file: %s\n", load_error.c_str());
      }
    } else if (MatchFlag(arg, "out", &value)) {
      args.AddOut(value);
    } else if (MatchFlag(arg, "json", &value)) {
      std::ostream* out = args.OpenOutput(value);
      args.sinks_.push_back(std::make_unique<JsonlSink>(*out));
      args.multi_.AddSink(args.sinks_.back().get());
    } else if (MatchFlag(arg, "csv", &value)) {
      std::ostream* out = args.OpenOutput(value);
      args.sinks_.push_back(std::make_unique<CsvSink>(*out));
      args.multi_.AddSink(args.sinks_.back().get());
    } else {
      args.rest.push_back(arg);
    }
  }
  return args;
}

void BenchArgs::AddOut(const std::string& path) {
  const size_t dot = path.rfind('.');
  if (path.empty() || path == "-" || dot == std::string::npos) {
    std::fprintf(stderr,
                 "error: --out needs a file path whose extension names the format "
                 "(.jsonl, .json, .csv, or .hds); use --json/--csv for stdout\n");
    std::exit(2);
  }
  const std::string ext = path.substr(dot);
  std::unique_ptr<ResultSink> sink;
  if (ext == ".jsonl" || ext == ".json") {
    sink = std::make_unique<JsonlSink>(*OpenOutput(path));
  } else if (ext == ".csv") {
    sink = std::make_unique<CsvSink>(*OpenOutput(path));
  } else if (ext == ".hds") {
    std::string error;
    sink = store::StoreSink::Open(path, &error);
    if (sink == nullptr) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      std::exit(2);
    }
  } else {
    std::fprintf(stderr,
                 "error: --out does not recognize the extension \"%s\" "
                 "(want .jsonl, .json, .csv, or .hds)\n",
                 ext.c_str());
    std::exit(2);
  }
  sinks_.push_back(std::move(sink));
  multi_.AddSink(sinks_.back().get());
}

std::ostream* BenchArgs::OpenOutput(const std::string& path) {
  if (path.empty() || path == "-") {
    return &std::cout;
  }
  files_.push_back(std::make_unique<std::ofstream>(path));
  if (!files_.back()->is_open()) {
    // Silent row loss is worse than a refusal: scripts must be able to trust
    // that exit 0 means the file holds the sweep.
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    std::exit(2);
  }
  return files_.back().get();
}

BenchArgs::~BenchArgs() {
  if (cache_ == nullptr || cache_path_.empty()) {
    return;
  }
  if (cache_load_failed_ && cache_->size() == 0) {
    // The file on disk failed to load and this run produced nothing to
    // replace it with; overwriting it would only destroy whatever it still
    // holds (e.g. entries a differently-versioned binary can read).
    std::fprintf(stderr, "warning: not overwriting unloadable cache file %s with an empty cache\n",
                 cache_path_.c_str());
    return;
  }
  std::string save_error;
  if (cache_->Save(cache_path_, &save_error)) {
    std::fprintf(stderr, "cache-file %s: saved %lld entries (%lld hits, %lld misses this run)\n",
                 cache_path_.c_str(), static_cast<long long>(cache_->size()),
                 static_cast<long long>(cache_->hits()),
                 static_cast<long long>(cache_->misses()));
  } else {
    std::fprintf(stderr, "warning: %s\n", save_error.c_str());
  }
}

SweepOptions BenchArgs::sweep_options() {
  SweepOptions options;
  options.threads = threads;
  options.sink = sink();
  options.cache = cache_.get();
  return options;
}

ResultSink* BenchArgs::sink() { return multi_.empty() ? nullptr : &multi_; }

}  // namespace hetpipe::runner

// bati_batch: run a batch of tuning sessions through the SessionManager.
//
//   bati_batch --specs runs.jsonl --parallelism 4 --out results.jsonl
//
// The spec file is JSONL: one flat JSON object per line (see
// session/spec_json.h for the accepted keys — the same knobs as bati_tune
// flags). Every spec becomes one TuningSession; sessions for the same
// workload share its immutable bundle and pure what-if optimizer, so the
// batch parallelizes without re-parsing workloads per run. Output is one
// result JSON object per line, in input order — the same object
// `bati_tune --json` prints for the equivalent flags, regardless of
// --parallelism (sessions share no mutable state). Each line is flushed
// the moment runs 1..K have all finished, so a consumer tailing the
// output (or a pipe) sees results incrementally, not at drain time.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/experiment.h"
#include "session/spec_json.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --specs FILE [options]\n"
      "  --specs FILE        JSONL run specs, one per line ('-' = stdin)\n"
      "  --out FILE          write result JSONL here (default: stdout)\n"
      "  --parallelism N     concurrent sessions (default 1)\n"
      "  --canonical         scrub wall-clock noise from result lines so\n"
      "                      the output is a pure function of the specs\n"
      "                      (what bati_fleet byte-compares against)\n"
      "  --verbose           progress lines on stderr\n"
      "each output line is the bati_tune --json object for the matching\n"
      "input line; a spec whose workload is unknown yields an error object\n"
      "and a final exit code of 1\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bati;
  std::string specs_path;
  std::string out_path;
  int64_t parallelism = 1;
  bool canonical = false;
  bool verbose = false;
  // The same strict flag table as bati_tune/bati_export (common/flags.h):
  // unknown or malformed flags print usage and exit 2.
  FlagParser parser;
  parser.AddString("specs", &specs_path);
  parser.AddString("out", &out_path);
  parser.AddInt64("parallelism", &parallelism, /*min=*/1);
  parser.AddBool("canonical", &canonical);
  parser.AddBool("verbose", &verbose);
  if (!parser.Parse(argc, argv)) {
    Usage(argv[0]);
    return 2;
  }
  if (specs_path.empty()) {
    std::fprintf(stderr, "--specs is required\n");
    Usage(argv[0]);
    return 2;
  }

  std::ifstream spec_file;
  if (specs_path != "-") {
    spec_file.open(specs_path);
    if (!spec_file) {
      std::fprintf(stderr, "cannot read %s\n", specs_path.c_str());
      return 2;
    }
  }
  std::istream& in = specs_path == "-" ? std::cin : spec_file;

  // Parse and validate the whole batch before running anything, so a typo
  // on line 40 cannot waste the first 39 runs.
  std::vector<RunSpec> specs;
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') blank = false;
    }
    if (blank) continue;
    RunSpec spec;
    const Status status = ParseRunSpecJson(line, &spec);
    if (!status.ok()) {
      std::fprintf(stderr, "%s line %d: %s\n", specs_path.c_str(), lineno,
                   status.message().c_str());
      return 2;
    }
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    std::fprintf(stderr, "no specs in %s\n", specs_path.c_str());
    return 2;
  }

  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  // A consumer closing the output pipe early must surface as a write
  // failure and a clean non-zero exit, not a SIGPIPE kill mid-batch.
  std::signal(SIGPIPE, SIG_IGN);

  SessionManagerOptions options;
  options.parallelism = static_cast<int>(parallelism);
  options.session.capture_result_json = true;
  options.session.canonical_result_json = canonical;
  // Stream results as they land instead of waiting for the whole batch:
  // the completion callback buffers out-of-order finishes and prints (and
  // flushes) the contiguous prefix in input order, so a consumer tailing
  // the output sees line K as soon as runs 1..K are done.
  std::mutex print_mu;
  std::map<uint64_t, std::string> ready;
  uint64_t next_to_print = 1;
  int failures = 0;
  bool write_failed = false;
  options.on_result = [&](const SessionResult& result) {
    std::string line;
    if (!result.status.ok()) {
      line = RunErrorJson(result.spec.workload, result.status.message());
    } else {
      line = result.result_json;
    }
    std::lock_guard<std::mutex> lock(print_mu);
    if (!result.status.ok()) ++failures;
    ready.emplace(result.id, std::move(line));
    while (!ready.empty() && ready.begin()->first == next_to_print) {
      out << ready.begin()->second << "\n";
      out.flush();
      if (!out.good()) write_failed = true;
      ready.erase(ready.begin());
      ++next_to_print;
    }
  };
  SessionManager manager(options);
  for (RunSpec& spec : specs) manager.Submit(std::move(spec));
  if (verbose) {
    std::fprintf(stderr, "running %zu sessions at parallelism %lld\n",
                 specs.size(), static_cast<long long>(parallelism));
  }
  const std::vector<SessionResult> results = manager.Drain();

  if (verbose) {
    std::fprintf(stderr, "done: %zu ok, %d failed\n",
                 results.size() - static_cast<size_t>(failures), failures);
  }
  if (write_failed) {
    std::fprintf(stderr, "output write failed (consumer gone?)\n");
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

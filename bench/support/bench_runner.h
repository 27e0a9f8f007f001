// Shared command line and output for the benchmark binaries: a tiny CLI
// parser and the one writer of every BENCH_*.json file.
//
// Determinism contract of the multi-circuit table benches (table1_spcf,
// table2_overhead, micro_bdd): every circuit is an independent ParallelRows
// task (util/thread_pool.h) with its own BddManager, and all printing
// happens serially afterwards in index order. Table output is therefore
// byte-identical at any thread count — provided wall-clock times go to
// stderr or the JSON dump, never stdout.
#pragma once

#include <string>

#include "service/json.h"

namespace sm {

struct BenchOptions {
  int threads = 1;        // --threads=N
  bool smoke = false;     // --smoke: reduced circuit list for CI
  bool reorder = false;   // --reorder / --no-reorder: sifting in the flows
  std::string json_path;  // --json=PATH: machine-readable result dump
};

// Parses --threads=N, --smoke, --reorder/--no-reorder and --json=PATH;
// throws std::invalid_argument on an unknown flag or a
// malformed value.
BenchOptions ParseBenchArgs(int argc, char** argv);

// Writes doc.Dump() and a newline to `path`; throws std::invalid_argument
// when the file cannot be written.
void WriteBenchJson(const std::string& path, const Json& doc);

}  // namespace sm

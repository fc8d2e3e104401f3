// The invocation modes of bench_e2e beyond a plain untraced run.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

/// One workload, untraced (end-to-end metrics) or traced (per-layer).
[[nodiscard]] RunResult run_workload(const RunOptions& opt);

/// The traced run (traced.cpp): drives the workload from bench_e2e's own
/// code on its own pool, probes every other layer, and reports the
/// per-layer metrics computed from the recorded spans.
[[nodiscard]] RunResult run_traced(const RunOptions& opt);

/// The result line for several workloads: metrics keyed
/// "<workload>.<metric>".
[[nodiscard]] std::string combined_line(const std::vector<RunResult>& rs);

/// Every workload at smoke scale, untraced and traced; checks every metric
/// named in BENCHMARK.json, every smoke digest, and that BENCHMARK.json's
/// workloads and run_seconds are bench_e2e's.  0 = pass.
int smoke_main(const RunOptions& opt);

/// Rewrite expected.json from reference-kernel, single-thread runs at the
/// default seed.  0 = written.
int regen_expected(const RunOptions& opt);

/// A/B comparison of result records (compare.cpp).  0 = no regression.
int compare_main(const std::vector<std::string>& files);

}  // namespace e2e

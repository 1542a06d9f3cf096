// cli.hpp - the `ptmctl` command-line tool's implementation, as a library
// so the test suite can drive every command in-process.
//
// Commands (see run_cli for dispatch):
//   generate   - synthesize traffic records into a record log
//   inspect    - list a log's records with per-record volume estimates
//   volume     - point traffic estimate for one (location, period)
//   persistent - point persistent estimate over a location's records
//   p2p        - point-to-point persistent estimate between two locations
//   privacy    - print the Eq. 22-24 analysis for given (n', f, s)
//   metrics    - telemetry registry exposition (prometheus / json / text)
//   trace      - post-mortem over a span dump (list or per-trace timeline)
//   ping       - probe a running ptmd: heartbeat RTTs + counter snapshot
//   cluster-status - poll every node of a ptmd cluster: reachability,
//                ring share, replication counters and lag
//   query      - run one query against a live ptmd or cluster
//
// Flags are `--key value` pairs after the subcommand; `--config file`
// preloads keys from a key=value file, with explicit flags overriding.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/status.hpp"

namespace ptm {

/// Parses `--key value` pairs (after an optional `--config <file>` load)
/// into a Config.  InvalidArgument on dangling flags or non-flag tokens.
[[nodiscard]] Result<Config> parse_cli_flags(
    const std::vector<std::string>& args);

/// Executes one command; output goes to `out`, errors are returned (the
/// binary prints them to stderr and exits non-zero).  `args` excludes the
/// program name: args[0] is the subcommand.
[[nodiscard]] Status run_cli(const std::vector<std::string>& args,
                             std::ostream& out);

/// The usage text (also printed by `ptmctl help`).
[[nodiscard]] std::string cli_usage();

}  // namespace ptm

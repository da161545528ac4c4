// Process-environment snapshot.
//
// Determinism contract (DESIGN.md §16): configuration may come from the
// environment, but only as a *startup* input — a value that changes
// mid-process must never change mid-simulation behavior, or a run stops
// being a function of (seed, config). sim::env() caches each variable
// on first read, so every later read in the process sees the same
// value, and xmem-lint's env-read rule bans raw getenv() everywhere
// else.
//
// The snapshot is unsynchronized: a first read inserts into a shared
// map. Read it only at startup on the main thread (resolve_jobs() does,
// before any worker exists), never from code that a SweepDriver replica
// runs, including anything a replica constructs (primitives, caches,
// channels). Resolve a setting up front and pass it down as config.
#pragma once

#include <optional>
#include <string>

namespace xmem::sim {

/// Value of environment variable `name` at first read (cached per key
/// for the life of the process). std::nullopt when unset.
[[nodiscard]] std::optional<std::string> env(const std::string& name);

/// Drop the snapshot so the next env() re-reads the process
/// environment. Tests that setenv()/unsetenv() mid-process call this;
/// simulation code never does.
void reset_env_for_test();

}  // namespace xmem::sim

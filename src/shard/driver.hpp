#pragma once
// Local shard driver: fan a manifest's shards out over subprocesses on this
// machine (`statfi shard run-all --jobs J`).
//
// Each shard runs as a child `statfi shard run --resume` process, so a
// crashing or killed shard cannot take the driver (or sibling shards) down,
// and a rerun of the driver resumes every incomplete shard from its journal.
// Shards whose result artifact already exists and validates against the
// manifest are skipped — run-all is idempotent. Child stdout is redirected
// onto stderr so the driver's own stdout stays clean for scripted use.
//
// This is the single-machine reference driver; on a cluster the same
// manifest is handed to one `statfi shard run` job per shard instead.

#include <cstdint>
#include <string>
#include <vector>

#include "shard/manifest.hpp"
#include "telemetry/trace.hpp"

namespace statfi::shard {

struct DriveOptions {
    std::size_t jobs = 1;      ///< concurrent shard subprocesses
    std::size_t threads = 1;   ///< engine workers per shard (0 = hardware)
    std::string statfi_binary; ///< executable to spawn (the CLI passes its own)
    /// Fleet trace identity (DESIGN.md decision 18). When valid, every
    /// child is spawned with `--trace-id <hex> --parent-span <hex>` (the
    /// driver's own span as the parent) so shard logs and traces correlate
    /// with the driver's.
    telemetry::TraceContext trace{};
    /// When non-empty, each child also gets `--trace-out
    /// <trace_dir>/trace_shard_<k>.json` so the driver can stitch a merged
    /// fleet trace afterwards.
    std::string trace_dir;
};

/// The per-shard Chrome trace path children write under
/// DriveOptions::trace_dir (and trace merges read back).
std::string shard_trace_path(const std::string& trace_dir,
                             std::uint32_t shard);

/// Stitch @p own — the calling process's trace, labelled @p role — with
/// every shard trace under @p trace_dir into one correlated Chrome trace at
/// @p out_path (atomic rewrite). A shard whose trace is missing is left
/// out. Returns the number of processes merged. @throws std::runtime_error
/// when the traces do not merge or the file cannot be written.
std::size_t merge_fleet_trace(const telemetry::TraceRecorder& own,
                              const std::string& role,
                              const std::string& trace_dir,
                              std::uint32_t shards,
                              const std::string& out_path);

struct ShardStatus {
    std::uint32_t shard = 0;
    bool skipped = false;  ///< valid result artifact already present
    int exit_code = 0;     ///< 128+signal when the child died on a signal

    /// "ok" / "skipped (already complete)" / "failed (exit 127: cannot
    /// exec)" / "killed (SIGKILL)" — the per-shard line fleet output and
    /// --json both carry, so one failed shard among dozens cannot hide.
    [[nodiscard]] std::string describe() const;
};

struct DriveReport {
    std::vector<ShardStatus> shards;
    [[nodiscard]] bool ok() const {
        for (const auto& s : shards)
            if (s.exit_code != 0) return false;
        return true;
    }
    /// The exit code the driver's caller should propagate: the first
    /// nonzero child exit code in shard order (0 when every shard
    /// succeeded). A signal death surfaces as the conventional 128+signo.
    [[nodiscard]] int first_failure() const {
        for (const auto& s : shards)
            if (s.exit_code != 0) return s.exit_code;
        return 0;
    }
};

/// True when a result artifact for @p shard exists next to @p manifest_path,
/// loads cleanly, and provably belongs to this manifest and slot (CRC,
/// shard id, range). The driver skips such shards; the service's
/// content-addressed cache uses the same predicate to count cache hits.
bool shard_result_valid(const ShardManifest& manifest,
                        const std::string& manifest_path, std::uint32_t shard);

/// Run every incomplete shard of @p manifest as a subprocess, at most
/// @p options.jobs at a time. Returns per-shard statuses; does not throw on
/// child failure (the report carries the exit codes) but does throw when the
/// driver itself cannot fork.
DriveReport run_all_shards(const ShardManifest& manifest,
                           const std::string& manifest_path,
                           const DriveOptions& options);

}  // namespace statfi::shard

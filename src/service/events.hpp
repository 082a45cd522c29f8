#pragma once
// Service event log: the daemon's own statfi.eventlog.v1 stream, recording
// the job lifecycle (submission -> scheduling -> completion) the way a
// campaign log records strata.
//
// Reusing the frozen eventlog schema — envelope, header-first invariant,
// per-event flush — means the existing tooling works unchanged: the log
// can be tailed live, validated by tools/check_eventlog.py (which knows
// the types below), and correlated with per-campaign logs through the
// fingerprint or job id each event carries. The header's `command` is
// "serve";
// recipe-shaped header fields that have no service-wide value are the
// schema's canonical defaults.
//
// Event types (validated in CI):
//   job_submitted  job, fingerprint, model, approach, fault_model, shards,
//                  deduplicated, cached
//   job_scheduled  job, worker, fingerprint
//   job_done       job, outcome ("complete"|"cached"|"failed"),
//                  fingerprint, shards_done, cached_shards, resumed,
//                  classified, critical
//   artifact_failed  job, artifact (its path), reason — an advisory
//                  artifact (a shard's Chrome trace, the merged trace)
//                  could not be written; the job itself carries on

#include <string>

#include "service/queue.hpp"
#include "telemetry/eventlog.hpp"

namespace statfi::service {

class ServiceLog {
public:
    /// Open (truncate) the log at @p path and emit the service header.
    explicit ServiceLog(const std::string& path);

    void job_submitted(const Job& job, bool deduplicated, bool cached);
    void job_scheduled(const Job& job, std::size_t worker);
    void job_done(const Job& job, const std::string& outcome);
    void artifact_failed(const Job& job, const std::string& artifact,
                         const std::string& reason);

private:
    telemetry::EventLog log_;
};

}  // namespace statfi::service

#include "service/events.hpp"

#include "core/convergence.hpp"
#include "kernels/registry.hpp"

namespace statfi::service {

ServiceLog::ServiceLog(const std::string& path) : log_(path) {
    const core::CampaignHeaderInfo info{
        .command = "serve",
        .model = "service",
        .approach = "service",
        .dtype = "-",
        .policy = "-",
        .kernels = kernels::active().name,
    };
    core::emit_campaign_header(log_, info);
}

void ServiceLog::job_submitted(const Job& job, bool deduplicated,
                               bool cached) {
    telemetry::Event e("job_submitted");
    e.field("job", job.id)
        .field("fingerprint", job.fingerprint)
        .field("model", job.recipe.model)
        .field("approach", core::to_string(job.recipe.approach))
        .field("fault_model", job.recipe.fault_model.describe())
        .field("shards", static_cast<std::uint64_t>(job.shards))
        .field("deduplicated", deduplicated)
        .field("cached", cached);
    log_.emit(e);
}

void ServiceLog::job_scheduled(const Job& job, std::size_t worker) {
    telemetry::Event e("job_scheduled");
    e.field("job", job.id)
        .field("worker", static_cast<std::uint64_t>(worker))
        .field("fingerprint", job.fingerprint);
    log_.emit(e);
}

void ServiceLog::job_done(const Job& job, const std::string& outcome) {
    telemetry::Event e("job_done");
    e.field("job", job.id)
        .field("outcome", outcome)
        .field("fingerprint", job.fingerprint)
        .field("shards_done", job.shards_done)
        .field("cached_shards", job.cached_shards)
        .field("resumed", job.resumed)
        .field("classified", job.classified)
        .field("critical", job.critical);
    log_.emit(e);
}

void ServiceLog::artifact_failed(const Job& job, const std::string& artifact,
                                 const std::string& reason) {
    telemetry::Event e("artifact_failed");
    e.field("job", job.id).field("artifact", artifact).field("reason", reason);
    log_.emit(e);
}

}  // namespace statfi::service

#include "shard/driver.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "shard/result.hpp"

namespace statfi::shard {

namespace {

pid_t spawn_shard(const std::string& binary, const std::string& manifest_path,
                  std::uint32_t shard, const DriveOptions& options) {
    std::vector<std::string> args = {
        binary,         "shard",
        "run",          "--manifest",
        manifest_path,  "--shard",
        std::to_string(shard),
        "--threads",    std::to_string(options.threads),
        "--resume",
    };
    if (options.trace.valid()) {
        args.push_back("--trace-id");
        args.push_back(telemetry::format_trace_id(options.trace.trace_id));
        args.push_back("--parent-span");
        args.push_back(telemetry::format_trace_id(options.trace.span_id));
    }
    if (!options.trace_dir.empty()) {
        args.push_back("--trace-out");
        args.push_back(shard_trace_path(options.trace_dir, shard));
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error(std::string("shard driver: fork failed: ") +
                                 std::strerror(errno));
    if (pid == 0) {
        // Child: keep the driver's stdout clean for scripted consumers.
        ::dup2(STDERR_FILENO, STDOUT_FILENO);
        ::execv(binary.c_str(), argv.data());
        std::cerr << "statfi: cannot exec " << binary << ": "
                  << std::strerror(errno) << "\n";
        ::_exit(127);
    }
    return pid;
}

int exit_code_of(int wait_status) {
    if (WIFEXITED(wait_status)) return WEXITSTATUS(wait_status);
    if (WIFSIGNALED(wait_status)) return 128 + WTERMSIG(wait_status);
    return 255;
}

}  // namespace

std::string shard_trace_path(const std::string& trace_dir,
                             std::uint32_t shard) {
    const bool needs_sep = !trace_dir.empty() && trace_dir.back() != '/';
    return trace_dir + (needs_sep ? "/" : "") + "trace_shard_" +
           std::to_string(shard) + ".json";
}

std::size_t merge_fleet_trace(const telemetry::TraceRecorder& own,
                              const std::string& role,
                              const std::string& trace_dir,
                              std::uint32_t shards,
                              const std::string& out_path) {
    std::ostringstream own_trace;
    own.write_chrome_trace(own_trace);
    std::vector<telemetry::TraceMergeInput> inputs{{role, own_trace.str()}};
    for (std::uint32_t k = 0; k < shards; ++k) {
        std::string text;
        if (io::read_file(shard_trace_path(trace_dir, k), text))
            inputs.push_back({"shard " + std::to_string(k), std::move(text)});
    }
    const std::string merged = telemetry::merge_chrome_traces(inputs);
    io::write_file_atomic(out_path, [&](std::ostream& out) { out << merged; });
    return inputs.size();
}

std::string ShardStatus::describe() const {
    if (skipped) return "skipped (already complete)";
    if (exit_code == 0) return "ok";
    // 130 is SIGINT whichever way it arrived — the child exiting 130 after
    // checkpointing, or dying on the signal raw. Either way the journal
    // holds the progress and a rerun resumes it.
    if (exit_code == 130)
        return "failed (exit 130: interrupted, rerun to resume)";
    if (exit_code > 128) {
        const int signo = exit_code - 128;
        const char* name = ::strsignal(signo);
        return "killed (signal " + std::to_string(signo) +
               (name ? std::string(": ") + name : std::string()) + ")";
    }
    std::string hint;
    if (exit_code == 127) hint = ": cannot exec the statfi binary";
    return "failed (exit " + std::to_string(exit_code) + hint + ")";
}

bool shard_result_valid(const ShardManifest& manifest,
                        const std::string& manifest_path,
                        std::uint32_t shard) {
    try {
        const ShardResult r =
            ShardResult::load(shard_result_path(manifest_path, shard));
        return r.manifest_crc == manifest.crc() && r.shard_id == shard &&
               r.range == manifest.shards[shard];
    } catch (const std::exception&) {
        return false;
    }
}

DriveReport run_all_shards(const ShardManifest& manifest,
                           const std::string& manifest_path,
                           const DriveOptions& options) {
    manifest.validate();
    if (options.statfi_binary.empty())
        throw std::invalid_argument("shard driver: statfi_binary not set");
    const std::size_t jobs = options.jobs == 0 ? 1 : options.jobs;

    DriveReport report;
    report.shards.resize(manifest.shards.size());
    std::vector<std::uint32_t> pending;
    for (std::uint32_t k = 0; k < manifest.shards.size(); ++k) {
        report.shards[k].shard = k;
        if (shard_result_valid(manifest, manifest_path, k)) {
            report.shards[k].skipped = true;
            std::cerr << "statfi: shard " << k
                      << " already has a valid result, skipping\n";
        } else {
            pending.push_back(k);
        }
    }

    std::map<pid_t, std::uint32_t> running;
    std::size_t next = 0;
    while (next < pending.size() || !running.empty()) {
        while (next < pending.size() && running.size() < jobs) {
            const std::uint32_t shard = pending[next++];
            const pid_t pid = spawn_shard(options.statfi_binary, manifest_path,
                                          shard, options);
            std::cerr << "statfi: shard " << shard << " -> pid " << pid << "\n";
            running.emplace(pid, shard);
        }
        int status = 0;
        const pid_t pid = ::waitpid(-1, &status, 0);
        if (pid < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(
                std::string("shard driver: waitpid failed: ") +
                std::strerror(errno));
        }
        const auto it = running.find(pid);
        if (it == running.end()) continue;  // not one of ours
        const std::uint32_t shard = it->second;
        running.erase(it);
        report.shards[shard].exit_code = exit_code_of(status);
        std::cerr << "statfi: shard " << shard << " "
                  << report.shards[shard].describe() << "\n";
    }
    return report;
}

}  // namespace statfi::shard

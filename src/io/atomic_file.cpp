#include "io/atomic_file.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace statfi::io {

namespace {

long current_pid() {
#ifdef _WIN32
    return static_cast<long>(_getpid());
#else
    return static_cast<long>(::getpid());
#endif
}

}  // namespace

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
    // A temporary unique to this call (pid + process-wide counter): two
    // writers of one path, whether two processes racing on a cold cache or
    // two threads saving the same trained weights, never share or clobber a
    // half-written file; last rename wins with a complete artifact.
    static std::atomic<std::uint64_t> calls{0};
    const std::string tmp = path + ".tmp" + std::to_string(current_pid()) +
                            "." + std::to_string(calls.fetch_add(1));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) throw std::runtime_error("write_file_atomic: cannot open " + tmp);
        writer(os);
        os.flush();
        if (!os) {
            os.close();
            std::remove(tmp.c_str());
            throw std::runtime_error("write_file_atomic: write failed for " + tmp);
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::remove(tmp.c_str());
        throw std::runtime_error("write_file_atomic: rename " + tmp + " -> " +
                                 path + " failed: " + ec.message());
    }
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream is(path, std::ios::binary);
    if (!is) return false;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    if (is.bad()) return false;
    out = std::move(buffer).str();
    return true;
}

bool read_from(const std::string& path, std::uint64_t offset,
               std::string& out) {
    std::ifstream is(path, std::ios::binary);
    if (!is || !is.seekg(static_cast<std::streamoff>(offset))) return false;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    if (is.bad() || buffer.tellp() <= 0) return false;
    out = std::move(buffer).str();
    return true;
}

}  // namespace statfi::io

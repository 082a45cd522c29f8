// statfi_spawn — run one command and report what its parent cannot measure
// for itself.
//
//   statfi_spawn REPORT PROGRAM [ARGS...]
//
// A child's ru_maxrss starts from its parent's high-water mark (exec folds
// the old address space's peak into the process's), so a program spawned
// straight from run.py would report the Python interpreter's memory. This
// launcher is small; the program it forks reports its own peak. It writes
// {"spawn_ns"} to REPORT just before forking and, once the program exits,
// {"spawn_ns", "exit_ns", "status", "maxrss_kb"}; the times are
// CLOCK_MONOTONIC nanoseconds, the clock of Python's time.monotonic_ns().
// stdin, stdout and stderr pass through; SIGTERM and SIGINT are forwarded.
// The exit code is the program's (128 + signal when it was killed).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <ctime>

namespace {

volatile pid_t g_child = 0;

void forward(int sig) {
    if (g_child > 0) kill(g_child, sig);
}

long long monotonic_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

bool write_report(const char* path, const char* text) {
    FILE* f = std::fopen(path, "w");
    if (!f) return false;
    const bool ok = std::fputs(text, f) >= 0;
    return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: statfi_spawn REPORT PROGRAM [ARGS...]\n");
        return 2;
    }
    const char* report = argv[1];
    char text[256];
    const long long spawn = monotonic_ns();
    std::snprintf(text, sizeof text, "{\"spawn_ns\": %lld}\n", spawn);
    if (!write_report(report, text)) {
        std::perror("statfi_spawn: report");
        return 2;
    }
    std::signal(SIGTERM, forward);
    std::signal(SIGINT, forward);
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("statfi_spawn: fork");
        return 2;
    }
    if (pid == 0) {
        execvp(argv[2], argv + 2);
        std::perror("statfi_spawn: exec");
        _exit(127);
    }
    g_child = pid;
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0)
        if (errno != EINTR) {
            std::perror("statfi_spawn: wait4");
            return 2;
        }
    const long long exit_ns = monotonic_ns();
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    std::snprintf(text, sizeof text,
                  "{\"spawn_ns\": %lld, \"exit_ns\": %lld, \"status\": %d, "
                  "\"maxrss_kb\": %ld}\n",
                  spawn, exit_ns, code, usage.ru_maxrss);
    if (!write_report(report, text)) {
        std::perror("statfi_spawn: report");
        return 2;
    }
    return code;
}

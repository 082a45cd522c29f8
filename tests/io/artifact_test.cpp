// Tests for the framed-artifact helpers: round-trip, atomicity convention,
// and the full read_framed failure taxonomy — every way an artifact can be
// damaged must produce a distinct, path-naming error (a zero-length file is
// NOT a short header, a short header is NOT a bad magic, ...).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "io/artifact.hpp"
#include "io/atomic_file.hpp"

namespace statfi::io {
namespace {

constexpr char kMagic[4] = {'T', 'E', 'S', 'T'};
constexpr std::uint32_t kVersion = 3;

class ArtifactTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test directory: ctest runs each TEST as its own process, so a
        // shared directory would let concurrent SetUps delete each other's
        // files mid-test.
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("statfi_artifact_test_") + info->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "artifact.bin").string();
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    void write_raw(const std::string& bytes) {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    [[nodiscard]] std::string raw() const {
        std::ifstream in(path_, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    }

    /// EXPECT read_framed to throw with `needle` in the message; the message
    /// must also name the offending path.
    void expect_failure(const std::string& needle) {
        try {
            read_framed(path_, kMagic, kVersion, "test artifact");
            FAIL() << "expected failure containing '" << needle << "'";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << "got: " << e.what();
            EXPECT_NE(std::string(e.what()).find(path_), std::string::npos)
                << "error does not name the path: " << e.what();
        }
    }

    std::filesystem::path dir_;
    std::string path_;
};

TEST_F(ArtifactTest, RoundTripsPayload) {
    const std::string payload("hello, framed world\x00\x01\x02", 22);
    write_framed_atomic(path_, kMagic, kVersion, payload);
    EXPECT_EQ(read_framed(path_, kMagic, kVersion, "test artifact"), payload);
}

TEST_F(ArtifactTest, RoundTripsEmptyPayload) {
    write_framed_atomic(path_, kMagic, kVersion, "");
    EXPECT_EQ(read_framed(path_, kMagic, kVersion, "test artifact"), "");
    EXPECT_EQ(std::filesystem::file_size(path_), kFrameOverhead);
}

TEST_F(ArtifactTest, LeavesNoTemporaryBehind) {
    write_framed_atomic(path_, kMagic, kVersion, "payload");
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator(dir_))
        ++entries;
    EXPECT_EQ(entries, 1u);
}

TEST_F(ArtifactTest, MissingFileIsCannotOpen) {
    expect_failure("cannot open file");
}

TEST_F(ArtifactTest, ZeroLengthFileIsDistinctFromShortHeader) {
    write_raw("");
    expect_failure("empty file (0 bytes)");
}

TEST_F(ArtifactTest, ShortHeaderNamesTheInvariant) {
    write_raw("TES");  // 3 bytes: not even the magic fits
    expect_failure("short header");
}

TEST_F(ArtifactTest, BadMagicNamesTheInvariant) {
    write_framed_atomic(path_, kMagic, kVersion, "payload");
    std::string bytes = raw();
    bytes[0] = 'X';
    write_raw(bytes);
    expect_failure("bad magic");
}

TEST_F(ArtifactTest, WrongVersionNamesTheInvariant) {
    constexpr char other_version[4] = {'T', 'E', 'S', 'T'};
    write_framed_atomic(path_, other_version, kVersion + 1, "payload");
    expect_failure("unsupported version");
}

TEST_F(ArtifactTest, TruncatedPayloadNamesTheInvariant) {
    write_framed_atomic(path_, kMagic, kVersion, "payload");
    std::string bytes = raw();
    // Header intact, but the checksum trailer no longer fits.
    write_raw(bytes.substr(0, 10));
    expect_failure("truncated payload");
}

TEST_F(ArtifactTest, FlippedPayloadByteIsCaughtByChecksum) {
    write_framed_atomic(path_, kMagic, kVersion, "payload");
    std::string bytes = raw();
    bytes[9] ^= 0x40;  // inside the payload
    write_raw(bytes);
    expect_failure("checksum mismatch");
}

TEST_F(ArtifactTest, FlippedTrailerByteIsCaughtByChecksum) {
    write_framed_atomic(path_, kMagic, kVersion, "payload");
    std::string bytes = raw();
    bytes[bytes.size() - 1] ^= 0x01;  // the stored CRC itself
    write_raw(bytes);
    expect_failure("checksum mismatch");
}

TEST_F(ArtifactTest, ConcurrentWritersOfOnePathAllSucceed) {
    // Two daemon workers may save the same trained weights at once: every
    // writer of one path must return, and the survivor is one writer's
    // complete bytes, never a mix or a torn file.
    constexpr int kWriters = 4;
    constexpr int kRounds = 50;
    std::vector<std::string> bytes;
    for (int w = 0; w < kWriters; ++w)
        bytes.emplace_back(std::size_t{1} << 16, static_cast<char>('a' + w));
    std::vector<int> failures(kWriters, 0);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&, w] {
            for (int r = 0; r < kRounds; ++r) {
                try {
                    write_file_atomic(path_, [&](std::ostream& os) {
                        os << bytes[static_cast<std::size_t>(w)];
                    });
                } catch (const std::exception&) {
                    ++failures[static_cast<std::size_t>(w)];
                }
            }
        });
    for (auto& t : writers) t.join();
    for (int w = 0; w < kWriters; ++w)
        EXPECT_EQ(failures[static_cast<std::size_t>(w)], 0) << "writer " << w;
    const std::string survivor = raw();
    EXPECT_NE(std::find(bytes.begin(), bytes.end(), survivor), bytes.end())
        << "final file (" << survivor.size()
        << " bytes) is no single writer's bytes";
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator(dir_))
        ++entries;
    EXPECT_EQ(entries, 1u);  // no temporary left behind
}

}  // namespace
}  // namespace statfi::io

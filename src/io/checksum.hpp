#pragma once
// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity check
// behind every durable artifact StatFI writes: campaign journals, the
// exhaustive outcome cache, and serialized weights. A flipped byte anywhere
// in a cached file must be detected at load time and degrade to recompute,
// never silently poison an experiment.
//
// update() folds eight bytes per step with eight 256-entry tables
// (slice-by-8) on little-endian hosts and one byte per step for the rest:
// the same polynomial and the same values as the bytewise loop, at about
// five times its speed on the job queue's whole-file saves. tests/io checks
// it against a bitwise oracle.

#include <cstddef>
#include <cstdint>

namespace statfi::io {

/// Incremental CRC32. update() may be called any number of times; value()
/// can be read at any point (it does not reset the accumulator).
class Crc32 {
public:
    void update(const void* data, std::size_t size) noexcept;
    [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC32 of a buffer. crc32("123456789") == 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size) noexcept;

}  // namespace statfi::io

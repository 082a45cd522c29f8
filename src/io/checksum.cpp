#include "io/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace statfi::io {

namespace {

// kTables[0] is the bytewise table: the CRC of one byte. kTables[k][n] is
// the CRC of byte n followed by k zero bytes, so eight lookups, one per
// table, fold eight bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][n] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t n = 0; n < 256; ++n)
            t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
    return t;
}

constexpr auto kTables = make_tables();

}  // namespace

void Crc32::update(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    const auto& t = kTables;
    std::uint32_t c = state_;
    if constexpr (std::endian::native == std::endian::little) {
        for (; size >= 8; size -= 8, bytes += 8) {
            std::uint32_t lo, hi;
            std::memcpy(&lo, bytes, 4);
            std::memcpy(&hi, bytes + 4, 4);
            lo ^= c;
            c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
                t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
                t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
                t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
        }
    }
    for (; size > 0; --size, ++bytes)
        c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
    state_ = c;
}

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
    Crc32 crc;
    crc.update(data, size);
    return crc.value();
}

}  // namespace statfi::io

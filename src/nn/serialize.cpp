#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "io/checksum.hpp"

namespace statfi::nn {

namespace {

constexpr char kMagic[4] = {'S', 'F', 'I', 'W'};
// v2 appends a CRC32 trailer over everything after the version word and is
// written atomically (temp + rename); v1 files fail the version check and
// the caller (build_fixture's weight cache) retrains.
constexpr std::uint32_t kVersion = 2;

struct NamedParam {
    std::string key;
    Tensor* tensor;
};

std::vector<NamedParam> named_params(Network& net) {
    std::vector<NamedParam> out;
    for (int id = 0; id < net.node_count(); ++id) {
        auto ps = net.layer(id).params();
        for (std::size_t k = 0; k < ps.size(); ++k)
            out.push_back(
                NamedParam{net.node_name(id) + "#" + std::to_string(k),
                           ps[k].value});
    }
    return out;
}

template <typename T>
void write_pod(std::ostream& os, const T& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is, const char* what) {
    T v{};
    is.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!is)
        throw std::runtime_error(std::string("load_parameters: truncated while "
                                             "reading ") +
                                 what);
    return v;
}

std::string hex32(std::uint32_t v) {
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

}  // namespace

void save_parameters(Network& net, const std::string& path) {
    // Serialize the payload up front so its checksum can trail it; weight
    // files are a few MB at most.
    std::ostringstream payload(std::ios::binary);
    auto params = named_params(net);
    write_pod(payload, static_cast<std::uint64_t>(params.size()));
    for (const auto& p : params) {
        write_pod(payload, static_cast<std::uint32_t>(p.key.size()));
        payload.write(p.key.data(), static_cast<std::streamsize>(p.key.size()));
        const auto& dims = p.tensor->shape().dims();
        write_pod(payload, static_cast<std::uint32_t>(dims.size()));
        for (auto d : dims) write_pod(payload, static_cast<std::int64_t>(d));
        payload.write(
            reinterpret_cast<const char*>(p.tensor->data()),
            static_cast<std::streamsize>(p.tensor->numel() * sizeof(float)));
    }
    const std::string body = std::move(payload).str();

    io::write_file_atomic(path, [&](std::ostream& os) {
        os.write(kMagic, sizeof(kMagic));
        write_pod(os, kVersion);
        os.write(body.data(), static_cast<std::streamsize>(body.size()));
        write_pod(os, io::crc32(body.data(), body.size()));
    });
}

void load_parameters(Network& net, const std::string& path) {
    std::string bytes;
    if (!io::read_file(path, bytes))
        throw std::runtime_error("load_parameters: cannot open " + path);
    constexpr std::size_t kHeaderSize = sizeof(kMagic) + sizeof(kVersion);
    constexpr std::size_t kTrailerSize = sizeof(std::uint32_t);
    if (bytes.size() < kHeaderSize + kTrailerSize)
        throw std::runtime_error("load_parameters: short file (" +
                                 std::to_string(bytes.size()) +
                                 " bytes, need at least " +
                                 std::to_string(kHeaderSize + kTrailerSize) +
                                 ") in " + path);
    if (bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error(
            "load_parameters: bad magic (want \"SFIW\") in " + path);
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
    if (version != kVersion)
        throw std::runtime_error("load_parameters: unsupported version " +
                                 std::to_string(version) + " (supported: " +
                                 std::to_string(kVersion) + ") in " + path);
    const char* body = bytes.data() + kHeaderSize;
    const std::size_t body_size = bytes.size() - kHeaderSize - kTrailerSize;
    std::uint32_t stored = 0;
    std::memcpy(&stored, body + body_size, sizeof(stored));
    const std::uint32_t computed = io::crc32(body, body_size);
    if (stored != computed)
        throw std::runtime_error("load_parameters: checksum mismatch (stored " +
                                 hex32(stored) + ", computed " +
                                 hex32(computed) + ") in " + path);

    std::istringstream is(std::string(body, body_size), std::ios::binary);
    auto params = named_params(net);
    const auto count = read_pod<std::uint64_t>(is, "parameter count");
    if (count != params.size())
        throw std::runtime_error("load_parameters: parameter count mismatch (file " +
                                 std::to_string(count) + ", network " +
                                 std::to_string(params.size()) + ")");
    for (auto& p : params) {
        const auto name_len = read_pod<std::uint32_t>(is, "parameter name length");
        std::string key(name_len, '\0');
        is.read(key.data(), name_len);
        if (!is || key != p.key)
            throw std::runtime_error("load_parameters: parameter '" + p.key +
                                     "' mismatch (file has '" + key + "')");
        const auto rank = read_pod<std::uint32_t>(is, "tensor rank");
        std::vector<std::int64_t> dims(rank);
        for (auto& d : dims) d = read_pod<std::int64_t>(is, "tensor dims");
        if (!(Shape(dims) == p.tensor->shape()))
            throw std::runtime_error("load_parameters: shape mismatch for '" +
                                     p.key + "'");
        is.read(reinterpret_cast<char*>(p.tensor->data()),
                static_cast<std::streamsize>(p.tensor->numel() * sizeof(float)));
        if (!is)
            throw std::runtime_error(
                "load_parameters: truncated tensor data for '" + p.key + "'");
    }
}

}  // namespace statfi::nn

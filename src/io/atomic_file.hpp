#pragma once
// Crash-safe file persistence. A cache written straight onto its final path
// can be half-written when the process dies; the reader then sees a
// truncated file. Writing to a temporary sibling and renaming onto the
// final path makes every cache update all-or-nothing (rename(2) is atomic
// within a filesystem), so a reader observes either the old complete file
// or the new complete file — never a torn one.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace statfi::io {

/// Stream @p writer into "<path>.tmp<pid>.<n>", a temporary unique to the
/// call, then atomically rename onto @p path; concurrent writers of one path
/// all succeed and the last rename wins. The temporary is removed on any
/// failure. Throws std::runtime_error when the file cannot be written or
/// renamed.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

/// Read an entire file into @p out. Returns false (out untouched) when the
/// file cannot be opened; throws nothing.
bool read_file(const std::string& path, std::string& out);

/// Read the bytes of @p path past byte @p offset into @p out — the one
/// incremental reader behind every live tail of a growing log. Returns
/// false (out untouched) when the file cannot be opened or has no bytes
/// past @p offset; throws nothing.
bool read_from(const std::string& path, std::uint64_t offset,
               std::string& out);

}  // namespace statfi::io

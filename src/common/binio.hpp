/**
 * @file
 * Binary serialisation primitives for seer-vault (DESIGN.md §13).
 *
 * BinWriter appends fixed-width little-endian scalars and
 * length-prefixed byte strings to a growing buffer; BinReader walks
 * the same encoding with sticky failure semantics — the first
 * out-of-bounds or malformed read marks the reader failed and every
 * subsequent read returns a zero value, so restore paths check ok()
 * once at the end instead of branching per field. A truncated or
 * corrupted snapshot therefore degrades to "restore refused", never
 * to a crash or a half-restored object.
 *
 * The encoding is deliberately dumb: no varints, no tags, no schema
 * evolution — the checkpoint header carries a format version and a
 * model fingerprint, and a mismatch on either refuses the restore
 * wholesale. crc32() (reflected polynomial 0xEDB88320, the zlib/PNG
 * convention) frames every on-disk record so torn tails are detected
 * by checksum, not by accident.
 */

#ifndef CLOUDSEER_COMMON_BINIO_HPP
#define CLOUDSEER_COMMON_BINIO_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace cloudseer::common {

/**
 * CRC-32 (reflected, poly 0xEDB88320) of a byte span. On x86-64 hosts
 * with PCLMULQDQ, an input of 64 bytes or more folds its
 * 16-byte-multiple prefix with carry-less multiplies and leaves the
 * tail to the slicing-by-4 tables; the value is the same either way.
 */
std::uint32_t crc32(std::string_view data);

/**
 * Continue a CRC-32 over the next span: `crc` is the finished CRC of
 * everything before it (0 for nothing), so
 * crc32(b, crc32(a)) == crc32(a + b). Lets a writer checksum a frame
 * assembled from separate buffers without concatenating them.
 */
std::uint32_t crc32(std::string_view data, std::uint32_t crc);

/** Append-only little-endian encoder over an owned byte buffer. */
class BinWriter
{
  public:
    void writeU8(std::uint8_t value);
    void writeU32(std::uint32_t value);
    void writeU64(std::uint64_t value);
    void writeI64(std::int64_t value);
    void writeF64(double value);
    void writeBool(bool value) { writeU8(value ? 1 : 0); }

    /** u64 length prefix followed by the raw bytes. */
    void writeString(std::string_view value);

    /** u64 count followed by one u32 per element. */
    void writeU32Vector(const std::vector<std::uint32_t> &values);

    /** u64 count followed by one u64 per element. */
    void writeU64Vector(const std::vector<std::uint64_t> &values);

    /** The encoded bytes so far. */
    const std::string &bytes() const { return buffer; }

    /** Move the encoded bytes out (writer becomes empty). */
    std::string takeBytes() { return std::move(buffer); }

    /** Drop the encoded bytes, keeping capacity (hot-path reuse). */
    void clear() { buffer.clear(); }

  private:
    std::string buffer;
};

/**
 * Bounds-checked decoder over a borrowed byte span. All reads return
 * zero values after the first failure; callers check ok() once.
 */
class BinReader
{
  public:
    explicit BinReader(std::string_view data) : input(data) {}

    std::uint8_t readU8();
    std::uint32_t readU32();
    std::uint64_t readU64();
    std::int64_t readI64();
    double readF64();
    bool readBool() { return readU8() != 0; }
    std::string readString();

    /** readString's bytes as a view into the input — no copy; valid
     *  as long as the input is. */
    std::string_view readStringView();

    std::vector<std::uint32_t> readU32Vector();
    std::vector<std::uint64_t> readU64Vector();

    /** True until a read ran past the input or a prefix was absurd. */
    bool ok() const { return !failed; }

    /** Mark the reader failed (restore paths on semantic errors). */
    void fail() { failed = true; }

    /** True when every byte has been consumed. */
    bool atEnd() const { return cursor == input.size(); }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return input.size() - cursor; }

  private:
    std::string_view input;
    std::size_t cursor = 0;
    bool failed = false;

    bool take(std::size_t n, const char **out);
};

inline void
writeMember(BinWriter &out, std::uint64_t value)
{
    out.writeU64(value);
}

inline void
writeMember(BinWriter &out, double value)
{
    out.writeF64(value);
}

inline void
readMember(BinReader &in, std::uint64_t &value)
{
    value = in.readU64();
}

inline void
readMember(BinReader &in, double &value)
{
    value = in.readF64();
}

/**
 * Write the members of `value` that a tuple of member pointers names,
 * in tuple order: std::uint64_t members as u64, double members as f64.
 * A struct's member list is its checkpoint layout.
 */
template <typename T, typename Members>
void
writeMembers(BinWriter &out, const T &value, const Members &members)
{
    std::apply(
        [&](auto... member) { (writeMember(out, value.*member), ...); },
        members);
}

/** Read what writeMembers wrote with the same member list. */
template <typename T, typename Members>
void
readMembers(BinReader &in, T &value, const Members &members)
{
    std::apply([&](auto... member) { (readMember(in, value.*member), ...); },
               members);
}

} // namespace cloudseer::common

#endif // CLOUDSEER_COMMON_BINIO_HPP

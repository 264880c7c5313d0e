#include "common/binio.hpp"

#include <array>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cloudseer::common {

namespace {

/** Lazily built slicing-by-4 CRC-32 tables (reflected 0xEDB88320).
 *  Table 0 is the classic byte-at-a-time table; tables 1-3 fold four
 *  input bytes per iteration, which matters because the write-ahead
 *  ledger checksums every frame on the ingest hot path. */
const std::uint32_t (*crcTables())[256]
{
    static const auto tables = [] {
        std::vector<std::array<std::uint32_t, 256>> t(4);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = t[0][i];
            for (int k = 1; k < 4; ++k) {
                c = t[0][c & 0xFFu] ^ (c >> 8);
                t[static_cast<std::size_t>(k)][i] = c;
            }
        }
        return t;
    }();
    return reinterpret_cast<const std::uint32_t(*)[256]>(
        tables.data());
}

#if defined(__x86_64__)

/**
 * Carry-less-multiply folding over a 16-byte-multiple span of at least
 * 64 bytes (Gopal et al., "Fast CRC Computation for Generic Polynomials
 * Using PCLMULQDQ Instruction", Intel 2009), with the bit-reflected
 * constants of their appendix for 0xEDB88320. Takes and returns the
 * running register, i.e. the CRC before its final inversion. Four
 * 128-bit lanes fold 64 bytes per step, fold into one lane, take the
 * remaining 16-byte blocks, then reduce 128 -> 64 -> 32 bits (Barrett).
 */
#define CLOUDSEER_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

CLOUDSEER_FOLD_TARGET inline __m128i
load(const unsigned char *at)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
}

/** `x` carried 128 bits (k3k4) or 512 bits (k1k2) ahead, xor `next`. */
CLOUDSEER_FOLD_TARGET inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

CLOUDSEER_FOLD_TARGET std::uint32_t
crc32Folded(const unsigned char *p, std::size_t n, std::uint32_t crc)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load(p),
                               _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load(p + 16);
    __m128i x3 = load(p + 32);
    __m128i x4 = load(p + 48);
    p += 64;
    n -= 64;
    while (n >= 64) {
        x1 = fold(x1, k1k2, load(p));
        x2 = fold(x2, k1k2, load(p + 16));
        x3 = fold(x3, k1k2, load(p + 32));
        x4 = fold(x4, k1k2, load(p + 48));
        p += 64;
        n -= 64;
    }
    x1 = fold(x1, k3k4, x2);
    x1 = fold(x1, k3k4, x3);
    x1 = fold(x1, k3k4, x4);
    while (n >= 16) {
        x1 = fold(x1, k3k4, load(p));
        p += 16;
        n -= 16;
    }

    // 128 -> 64 bits.
    __m128i x2r = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2r);
    x2r = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, low32);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), x2r);

    // Barrett reduction to 32 bits.
    x2r = _mm_and_si128(x1, low32);
    x2r = _mm_clmulepi64_si128(x2r, poly, 0x10);
    x2r = _mm_and_si128(x2r, low32);
    x2r = _mm_clmulepi64_si128(x2r, poly, 0x00);
    x1 = _mm_xor_si128(x1, x2r);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#undef CLOUDSEER_FOLD_TARGET

/** Chosen once per process: the folding kernel needs PCLMULQDQ and
 *  SSE4.1 (pextrd), which every x86-64 host since about 2010 has. */
bool
haveFoldedCrc()
{
    static const bool have = __builtin_cpu_supports("pclmul") &&
                             __builtin_cpu_supports("sse4.1");
    return have;
}

#endif

} // namespace

std::uint32_t
crc32(std::string_view data)
{
    return crc32(data, 0);
}

std::uint32_t
crc32(std::string_view data, std::uint32_t crc)
{
    const std::uint32_t(*t)[256] = crcTables();
    crc ^= 0xFFFFFFFFu;
    const char *p = data.data();
    std::size_t n = data.size();
#if defined(__x86_64__)
    // Fold the 16-byte-multiple prefix; the tables take the tail, short
    // inputs, and hosts without PCLMULQDQ.
    if (n >= 64 && haveFoldedCrc()) {
        const std::size_t folded = n & ~static_cast<std::size_t>(15);
        crc = crc32Folded(reinterpret_cast<const unsigned char *>(p),
                          folded, crc);
        p += folded;
        n -= folded;
    }
#endif
    while (n >= 4) {
        // Byte-assembled little-endian load: compiles to one mov on
        // LE hosts, stays correct elsewhere.
        const auto *u = reinterpret_cast<const unsigned char *>(p);
        crc ^= static_cast<std::uint32_t>(u[0]) |
               (static_cast<std::uint32_t>(u[1]) << 8) |
               (static_cast<std::uint32_t>(u[2]) << 16) |
               (static_cast<std::uint32_t>(u[3]) << 24);
        crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
              t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
        p += 4;
        n -= 4;
    }
    while (n-- > 0) {
        crc = t[0][(crc ^ static_cast<unsigned char>(*p++)) & 0xFFu] ^
              (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFu;
}

void
BinWriter::writeU8(std::uint8_t value)
{
    buffer.push_back(static_cast<char>(value));
}

void
BinWriter::writeU32(std::uint32_t value)
{
    // Encode on the stack and append once: byte-wise push_back pays a
    // capacity check per byte, which shows up in the WAL hot path.
    char bytes[4];
    for (int i = 0; i < 4; ++i)
        bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
    buffer.append(bytes, 4);
}

void
BinWriter::writeU64(std::uint64_t value)
{
    char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
    buffer.append(bytes, 8);
}

void
BinWriter::writeI64(std::int64_t value)
{
    writeU64(static_cast<std::uint64_t>(value));
}

void
BinWriter::writeF64(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    writeU64(bits);
}

void
BinWriter::writeString(std::string_view value)
{
    writeU64(value.size());
    buffer.append(value.data(), value.size());
}

void
BinWriter::writeU32Vector(const std::vector<std::uint32_t> &values)
{
    writeU64(values.size());
    for (std::uint32_t v : values)
        writeU32(v);
}

void
BinWriter::writeU64Vector(const std::vector<std::uint64_t> &values)
{
    writeU64(values.size());
    for (std::uint64_t v : values)
        writeU64(v);
}

bool
BinReader::take(std::size_t n, const char **out)
{
    if (failed || input.size() - cursor < n) {
        failed = true;
        return false;
    }
    *out = input.data() + cursor;
    cursor += n;
    return true;
}

std::uint8_t
BinReader::readU8()
{
    const char *p = nullptr;
    if (!take(1, &p))
        return 0;
    return static_cast<std::uint8_t>(*p);
}

std::uint32_t
BinReader::readU32()
{
    const char *p = nullptr;
    if (!take(4, &p))
        return 0;
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(p[i]))
                 << (8 * i);
    return value;
}

std::uint64_t
BinReader::readU64()
{
    const char *p = nullptr;
    if (!take(8, &p))
        return 0;
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(p[i]))
                 << (8 * i);
    return value;
}

std::int64_t
BinReader::readI64()
{
    return static_cast<std::int64_t>(readU64());
}

double
BinReader::readF64()
{
    std::uint64_t bits = readU64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

std::string
BinReader::readString()
{
    return std::string(readStringView());
}

std::string_view
BinReader::readStringView()
{
    std::uint64_t length = readU64();
    if (failed || length > input.size() - cursor) {
        failed = true;
        return {};
    }
    const char *p = nullptr;
    take(static_cast<std::size_t>(length), &p);
    return std::string_view(p, static_cast<std::size_t>(length));
}

std::vector<std::uint32_t>
BinReader::readU32Vector()
{
    std::uint64_t count = readU64();
    if (failed || count > (input.size() - cursor) / 4) {
        failed = true;
        return {};
    }
    std::vector<std::uint32_t> out;
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count && !failed; ++i)
        out.push_back(readU32());
    return out;
}

std::vector<std::uint64_t>
BinReader::readU64Vector()
{
    std::uint64_t count = readU64();
    if (failed || count > (input.size() - cursor) / 8) {
        failed = true;
        return {};
    }
    std::vector<std::uint64_t> out;
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count && !failed; ++i)
        out.push_back(readU64());
    return out;
}

} // namespace cloudseer::common

/**
 * @file
 * One byte-class table for the wire front end.
 *
 * The decoder, the variable scanner and the timestamp parser classify
 * every byte of every line. `<cctype>` answers each question through a
 * call and a locale table; this header answers them with one load from
 * a constexpr table. The classes follow the "C" locale, which is the
 * only locale the program runs in: bytes >= 0x80 belong to no class.
 *
 * The scanners' hot loops classify eight bytes at once instead (SWAR,
 * DESIGN.md §18): a `Word` holds eight consecutive bytes, the first in
 * its low byte whatever the host's byte order, and each `*Mask`
 * function returns 0x80 in every byte lane whose byte is in the class
 * and 0 elsewhere. The lanes never carry into each other, and a byte
 * >= 0x80 is in no class here either. The loaders never read a byte
 * at or past the end they are given: views are neither NUL-terminated
 * nor padded.
 */

#ifndef CLOUDSEER_COMMON_CHAR_CLASS_HPP
#define CLOUDSEER_COMMON_CHAR_CLASS_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cloudseer::common {

/** Class bits; a byte may carry several. */
enum CharClass : std::uint8_t
{
    kDigit = 1u << 0, ///< '0'-'9' (isdigit)
    kHex = 1u << 1,   ///< '0'-'9', 'a'-'f', 'A'-'F' (isxdigit)
    kAlpha = 1u << 2, ///< 'a'-'z', 'A'-'Z' (isalpha)
    kAlnum = 1u << 3, ///< kDigit or kAlpha (isalnum)
    kSpace = 1u << 4, ///< ' ', '\t', '\n', '\v', '\f', '\r' (isspace)
};

namespace detail {

constexpr std::array<std::uint8_t, 256>
makeCharClassTable()
{
    std::array<std::uint8_t, 256> table{};
    for (int c = '0'; c <= '9'; ++c)
        table[c] = kDigit | kHex | kAlnum;
    for (int c = 'a'; c <= 'z'; ++c)
        table[c] = kAlpha | kAlnum;
    for (int c = 'A'; c <= 'Z'; ++c)
        table[c] = kAlpha | kAlnum;
    for (int c = 'a'; c <= 'f'; ++c)
        table[c] |= kHex;
    for (int c = 'A'; c <= 'F'; ++c)
        table[c] |= kHex;
    for (char c : {' ', '\t', '\n', '\v', '\f', '\r'})
        table[static_cast<unsigned char>(c)] = kSpace;
    return table;
}

inline constexpr std::array<std::uint8_t, 256> kCharClassTable =
    makeCharClassTable();

} // namespace detail

/** True when byte `c` carries any of the class bits in `mask`. */
constexpr bool
hasClass(char c, std::uint8_t mask)
{
    return (detail::kCharClassTable[static_cast<unsigned char>(c)] &
            mask) != 0;
}

constexpr bool isDigit(char c) { return hasClass(c, kDigit); }
constexpr bool isHex(char c) { return hasClass(c, kHex); }
constexpr bool isAlpha(char c) { return hasClass(c, kAlpha); }
constexpr bool isAlnum(char c) { return hasClass(c, kAlnum); }
constexpr bool isSpace(char c) { return hasClass(c, kSpace); }

// --- eight bytes at a time ----------------------------------------------

/** Eight consecutive bytes; the first byte is the low byte. */
using Word = std::uint64_t;

inline constexpr std::size_t kWordBytes = sizeof(Word);

/** `b` in every byte lane. */
constexpr Word
repeatByte(std::uint8_t b)
{
    return 0x0101010101010101ULL * b;
}

/** The high bit of every lane: a mask with every lane set. */
inline constexpr Word kLaneHigh = repeatByte(0x80);

/** The eight bytes at `p`, which must all lie inside the view. */
inline Word
loadWord(const char *p)
{
    Word w;
    std::memcpy(&w, p, sizeof(w));
    if constexpr (std::endian::native == std::endian::big)
        w = __builtin_bswap64(w);
    return w;
}

/**
 * The bytes [p, end), fewer than eight, in the low lanes and zero
 * above them. Zero is in no class, so the padding lanes never match a
 * class mask. When the view [begin, end) holds a whole word, the word
 * that ends at `end` is loaded and shifted down, so no byte outside
 * the view is read either way.
 */
inline Word
loadTail(const char *begin, const char *p, const char *end)
{
    const std::size_t n = static_cast<std::size_t>(end - p);
    if (n == 0)
        return 0;
    if (static_cast<std::size_t>(end - begin) >= kWordBytes)
        return loadWord(end - kWordBytes) >> (8 * (kWordBytes - n));
    Word w = 0;
    for (std::size_t i = 0; i < n; ++i)
        w |= Word{static_cast<unsigned char>(p[i])} << (8 * i);
    return w;
}

/** Lanes whose byte lies in [lo, hi]; both bounds below 0x80. */
constexpr Word
rangeMask(Word w, std::uint8_t lo, std::uint8_t hi)
{
    // On the low seven bits no lane can carry into the next: adding
    // 0x80 - lo sets a lane's high bit when it is >= lo, adding
    // 0x7f - hi when it is > hi. A byte >= 0x80 is dropped at the end.
    const Word low = w & ~kLaneHigh;
    const Word atLeastLo = low + repeatByte(0x80 - lo);
    const Word aboveHi = low + repeatByte(0x7f - hi);
    return atLeastLo & ~aboveHi & ~w & kLaneHigh;
}

/** Lanes whose byte equals `b` (any byte value). */
constexpr Word
byteMask(Word w, std::uint8_t b)
{
    const Word x = w ^ repeatByte(b);
    return ~(((x & ~kLaneHigh) + repeatByte(0x7f)) | x) & kLaneHigh;
}

constexpr Word
digitMask(Word w)
{
    return rangeMask(w, '0', '9');
}

/** Setting bit 5 maps 'A'-'Z' onto 'a'-'z' and no other byte there. */
constexpr Word
lowered(Word w)
{
    return w | repeatByte(0x20);
}

constexpr Word
hexMask(Word w)
{
    return digitMask(w) | rangeMask(lowered(w), 'a', 'f');
}

constexpr Word
alnumMask(Word w)
{
    return digitMask(w) | rangeMask(lowered(w), 'a', 'z');
}

constexpr Word
spaceMask(Word w)
{
    return byteMask(w, ' ') | rangeMask(w, '\t', '\r');
}

/** Index of the first set lane of a nonzero mask. */
constexpr std::size_t
firstLane(Word mask)
{
    return static_cast<std::size_t>(std::countr_zero(mask)) / 8;
}

/**
 * First byte in [p, end) whose lane `mask(word)` sets, or `end`;
 * [begin, end) is the whole view, so the tail can be loaded whole.
 */
template <typename MaskFn>
inline const char *
findFirst(const char *begin, const char *p, const char *end, MaskFn mask)
{
    for (; end - p >= static_cast<std::ptrdiff_t>(kWordBytes);
         p += kWordBytes) {
        if (const Word m = mask(loadWord(p)); m != 0)
            return p + firstLane(m);
    }
    if (p == end)
        return end;
    // Padding lanes are zero bytes; a mask that sets them (a negated
    // class) is clipped to the bytes that exist.
    const std::size_t n = static_cast<std::size_t>(end - p);
    const Word valid = (Word{1} << (8 * n)) - 1;
    const Word m = mask(loadTail(begin, p, end)) & valid;
    return m != 0 ? p + firstLane(m) : end;
}

} // namespace cloudseer::common

#endif // CLOUDSEER_COMMON_CHAR_CLASS_HPP

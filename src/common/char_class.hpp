/**
 * @file
 * One byte-class table for the wire front end.
 *
 * The decoder, the variable scanner and the timestamp parser classify
 * every byte of every line. `<cctype>` answers each question through a
 * call and a locale table; this header answers them with one load from
 * a constexpr table. The classes follow the "C" locale, which is the
 * only locale the program runs in: bytes >= 0x80 belong to no class.
 */

#ifndef CLOUDSEER_COMMON_CHAR_CLASS_HPP
#define CLOUDSEER_COMMON_CHAR_CLASS_HPP

#include <array>
#include <cstdint>

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

} // namespace cloudseer::common

#endif // CLOUDSEER_COMMON_CHAR_CLASS_HPP

/**
 * @file
 * Splits a raw log message into its constant template and variable parts.
 *
 * Following the paper (§3.1), three variable classes are recognised:
 * UUIDs (8-4-4-4-12 hex), IPv4 addresses, and bare numbers. The template
 * is the message with each variable replaced by a kind placeholder; the
 * value set holds the extracted strings.
 */

#ifndef CLOUDSEER_LOGGING_VARIABLE_EXTRACTOR_HPP
#define CLOUDSEER_LOGGING_VARIABLE_EXTRACTOR_HPP

#include <string>
#include <string_view>
#include <vector>

namespace cloudseer::logging {

/** Kind of a variable part found in a log message. */
enum class VariableKind
{
    Uuid,
    Ip,
    Number,
};

/** One extracted variable occurrence. */
struct Variable
{
    VariableKind kind;
    std::string text;

    bool operator==(const Variable &other) const = default;
};

/** Result of template/variable separation for one message. */
struct ParsedBody
{
    std::string templateText;        ///< body with placeholders substituted
    std::vector<Variable> variables; ///< in order of appearance

    /**
     * Text buffers of variables a shorter parse dropped, kept so the
     * next parseInto reuses their capacity. Not part of the result.
     */
    std::vector<std::string> spareTexts;
};

/**
 * Hand-rolled single-pass scanner (no std::regex — it dominates runtime
 * at stream rates). Deterministic longest-match at each position with
 * precedence UUID > IP > number.
 */
class VariableExtractor
{
  public:
    /** Placeholder inserted for each kind. */
    static const char *placeholder(VariableKind kind);

    /**
     * Parse one message body into caller-owned scratch, replacing its
     * contents and reusing the capacity of its strings and vectors.
     * This is the one scanner; parse() wraps it.
     */
    void parseInto(std::string_view body, ParsedBody &out) const;

    /** Parse one message body into template + variables. */
    ParsedBody parse(const std::string &body) const;

    /**
     * Extract only the identifier values used by the checker's
     * identifier-set heuristic. Numbers are excluded by default — they
     * collide across unrelated sequences (ports, sizes, HTTP codes).
     *
     * @param body           Raw message body.
     * @param include_numbers Whether bare numbers also count.
     */
    std::vector<std::string>
    extractIdentifiers(const std::string &body,
                       bool include_numbers = false) const;
};

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_VARIABLE_EXTRACTOR_HPP

/**
 * @file
 * Interns message templates to dense integer ids.
 *
 * Mining and checking operate on TemplateId, not strings; the catalog is
 * the single owner of template text. Templates are keyed by the pair
 * (service, templateText) — identical text from different services is a
 * different workflow step.
 *
 * Layout (DESIGN.md §18): ids index a vector of entries in insertion
 * order. The index is a flat open-addressed table of 4-byte slots
 * (power-of-two capacity, linear probing, load at most 3/4) holding
 * id + 1, with 0 for an empty slot, like the identifier interner's
 * (DESIGN.md §9.2). A parallel per-id hash lets a probe compare hashes
 * before it touches text, and lets growth re-slot every entry without
 * re-hashing a string; a hit is confirmed against the stored service
 * and text.
 */

#ifndef CLOUDSEER_LOGGING_TEMPLATE_CATALOG_HPP
#define CLOUDSEER_LOGGING_TEMPLATE_CATALOG_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cloudseer::logging {

/** Dense template identifier; valid ids index the catalog's tables. */
using TemplateId = std::uint32_t;

/** Sentinel for "not interned". */
constexpr TemplateId kInvalidTemplate = 0xffffffffu;

/** Registry of message templates seen during modeling and checking. */
class TemplateCatalog
{
  public:
    /** Intern (service, template text); returns a stable id. */
    TemplateId intern(std::string_view service,
                      std::string_view template_text);

    /** Look up without interning; kInvalidTemplate when unknown. */
    TemplateId find(std::string_view service,
                    std::string_view template_text) const;

    /** Service that owns the template. */
    const std::string &service(TemplateId id) const;

    /** Constant text of the template. */
    const std::string &text(TemplateId id) const;

    /** Short human label "service: text" used in reports. */
    std::string label(TemplateId id) const;

    /** Number of interned templates. */
    std::size_t size() const { return entries.size(); }

  private:
    struct Entry
    {
        std::string service;
        std::string text;
    };

    /**
     * Folds each field a word at a time, its length included, into a
     * multiply-rotate chain (so (a, b) and (b, a) hash apart), then
     * mixes the result down to 32 bits.
     */
    static std::uint32_t keyHash(std::string_view service,
                                 std::string_view text);

    /** Slot that holds (service, text), or the empty slot where it
     *  would go. The table must not be empty. */
    std::size_t slotOf(std::uint32_t hash, std::string_view service,
                       std::string_view text) const;

    /** First empty slot on `hash`'s probe path. */
    std::size_t freeSlot(std::uint32_t hash) const;

    /** Double the table (16 slots at first) until one more entry fits
     *  at load 3/4, and re-slot every id from its stored hash. */
    void grow();

    /** id -> entry, in insertion order. */
    std::vector<Entry> entries;
    /** id -> keyHash of its entry. */
    std::vector<std::uint32_t> hashes;
    /** Open-addressed index: 0 = empty, otherwise id + 1. */
    std::vector<std::uint32_t> slots;
};

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_TEMPLATE_CATALOG_HPP

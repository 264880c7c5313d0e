/**
 * @file
 * Interns message templates to dense integer ids.
 *
 * Mining and checking operate on TemplateId, not strings; the catalog is
 * the single owner of template text. Templates are keyed by the pair
 * (service, templateText) — identical text from different services is a
 * different workflow step.
 */

#ifndef CLOUDSEER_LOGGING_TEMPLATE_CATALOG_HPP
#define CLOUDSEER_LOGGING_TEMPLATE_CATALOG_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
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

    /** Hash of a (service, text) pair; see keyHash(). */
    struct IdentityHash
    {
        std::size_t
        operator()(std::size_t h) const noexcept
        {
            return h;
        }
    };

    /**
     * Combines std::hash<std::string_view> over each field, which
     * reads 8 bytes per step.
     */
    static std::size_t keyHash(std::string_view service,
                               std::string_view text);

    /** Id of (service, text) given its keyHash; kInvalidTemplate when
     *  not interned. */
    TemplateId lookup(std::size_t hash, std::string_view service,
                      std::string_view text) const;

    std::vector<Entry> entries;
    /** keyHash -> id; colliding pairs share a hash and are told apart
     *  by comparing the entry. The catalog keeps each text once. */
    std::unordered_multimap<std::size_t, TemplateId, IdentityHash> index;
};

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_TEMPLATE_CATALOG_HPP

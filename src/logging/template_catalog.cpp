#include "logging/template_catalog.hpp"

#include <algorithm>
#include <bit>

#include "common/char_class.hpp"
#include "common/error.hpp"

namespace cloudseer::logging {

namespace {

/** Slots in the first table; it holds 12 entries at load 3/4. */
constexpr std::size_t kMinSlots = 16;

constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;

/** Fold `text` into `h` a word at a time, its length included. */
std::uint64_t
mixText(std::string_view text, std::uint64_t h)
{
    const char *p = text.data();
    const char *end = p + text.size();
    for (; end - p >= 8; p += 8)
        h = std::rotl((h ^ common::loadWord(p)) * kMul, 29);
    h ^= common::loadTail(text.data(), p, end);
    return std::rotl((h ^ text.size()) * kMul, 29);
}

} // namespace

std::uint32_t
TemplateCatalog::keyHash(std::string_view service, std::string_view text)
{
    std::uint64_t h = mixText(text, mixText(service, 0));
    // murmur3's finaliser, so that every input bit reaches the low
    // bits the slot index takes.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::size_t
TemplateCatalog::slotOf(std::uint32_t hash, std::string_view service,
                        std::string_view text) const
{
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        const std::uint32_t slot = slots[i];
        if (slot == 0)
            return i;
        const TemplateId id = slot - 1;
        if (hashes[id] == hash && entries[id].text == text &&
            entries[id].service == service) {
            return i;
        }
    }
}

std::size_t
TemplateCatalog::freeSlot(std::uint32_t hash) const
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = hash & mask;
    while (slots[i] != 0)
        i = (i + 1) & mask;
    return i;
}

void
TemplateCatalog::grow()
{
    std::size_t capacity = std::max(kMinSlots, slots.size());
    while ((entries.size() + 1) * 4 > capacity * 3)
        capacity *= 2;
    slots.assign(capacity, 0);
    for (std::size_t id = 0; id < hashes.size(); ++id)
        slots[freeSlot(hashes[id])] = static_cast<std::uint32_t>(id + 1);
}

TemplateId
TemplateCatalog::intern(std::string_view service,
                        std::string_view template_text)
{
    const std::uint32_t hash = keyHash(service, template_text);
    std::size_t slot = 0;
    if (!slots.empty()) {
        slot = slotOf(hash, service, template_text);
        if (slots[slot] != 0)
            return slots[slot] - 1;
    }
    const TemplateId id = static_cast<TemplateId>(entries.size());
    CS_ASSERT(id != kInvalidTemplate, "template catalog full");
    if ((entries.size() + 1) * 4 > slots.size() * 3) {
        grow();
        slot = freeSlot(hash);
    }
    entries.push_back({std::string(service), std::string(template_text)});
    hashes.push_back(hash);
    slots[slot] = id + 1;
    return id;
}

TemplateId
TemplateCatalog::find(std::string_view service,
                      std::string_view template_text) const
{
    if (slots.empty())
        return kInvalidTemplate;
    const std::uint32_t slot =
        slots[slotOf(keyHash(service, template_text), service,
                     template_text)];
    return slot == 0 ? kInvalidTemplate : slot - 1;
}

const std::string &
TemplateCatalog::service(TemplateId id) const
{
    CS_ASSERT(id < entries.size(), "template id out of range");
    return entries[id].service;
}

const std::string &
TemplateCatalog::text(TemplateId id) const
{
    CS_ASSERT(id < entries.size(), "template id out of range");
    return entries[id].text;
}

std::string
TemplateCatalog::label(TemplateId id) const
{
    return service(id) + ": " + text(id);
}

} // namespace cloudseer::logging

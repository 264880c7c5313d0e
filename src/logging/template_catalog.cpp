#include "logging/template_catalog.hpp"

#include "common/error.hpp"

namespace cloudseer::logging {

std::size_t
TemplateCatalog::keyHash(std::string_view service, std::string_view text)
{
    std::hash<std::string_view> hash;
    std::size_t h = hash(service);
    // boost::hash_combine's mix, so (a, b) and (b, a) hash apart.
    return h ^ (hash(text) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

TemplateId
TemplateCatalog::lookup(std::size_t hash, std::string_view service,
                        std::string_view text) const
{
    auto [it, end] = index.equal_range(hash);
    for (; it != end; ++it) {
        const Entry &entry = entries[it->second];
        if (entry.text == text && entry.service == service)
            return it->second;
    }
    return kInvalidTemplate;
}

TemplateId
TemplateCatalog::intern(std::string_view service,
                        std::string_view template_text)
{
    std::size_t hash = keyHash(service, template_text);
    TemplateId id = lookup(hash, service, template_text);
    if (id != kInvalidTemplate)
        return id;
    id = static_cast<TemplateId>(entries.size());
    entries.push_back({std::string(service), std::string(template_text)});
    index.emplace(hash, id);
    return id;
}

TemplateId
TemplateCatalog::find(std::string_view service,
                      std::string_view template_text) const
{
    return lookup(keyHash(service, template_text), service, template_text);
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

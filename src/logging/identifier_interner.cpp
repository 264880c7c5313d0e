#include "logging/identifier_interner.hpp"

#include "common/error.hpp"

namespace cloudseer::logging {

IdToken
IdentifierInterner::intern(std::string_view value)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = index.find(value);
    if (it != index.end()) {
        ++hitCount;
        return it->second;
    }
    if (maxEntries != 0 && tokens.size() >= maxEntries) {
        ++capRejectedCount;
        return kInvalidIdToken;
    }
    ++missCount;
    IdToken token = static_cast<IdToken>(tokens.size());
    CS_ASSERT(token != kInvalidIdToken, "identifier interner full");
    tokens.emplace_back(value);
    index.emplace(tokens.back(), token);
    return token;
}

IdToken
IdentifierInterner::find(std::string_view value) const
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = index.find(value);
    return it == index.end() ? kInvalidIdToken : it->second;
}

const std::string &
IdentifierInterner::text(IdToken token) const
{
    std::lock_guard<std::mutex> lock(mutex);
    CS_ASSERT(token < tokens.size(), "identifier token out of range");
    return tokens[token];
}

std::size_t
IdentifierInterner::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return tokens.size();
}

InternerStats
IdentifierInterner::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    InternerStats out;
    out.size = tokens.size();
    out.hits = hitCount;
    out.misses = missCount;
    out.capacity = maxEntries;
    out.capRejected = capRejectedCount;
    return out;
}

void
IdentifierInterner::setCapacity(std::size_t max_entries)
{
    std::lock_guard<std::mutex> lock(mutex);
    maxEntries = max_entries;
}

std::size_t
IdentifierInterner::capacityLimit() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return maxEntries;
}

void
IdentifierInterner::snapshotState(common::BinWriter &out) const
{
    std::lock_guard<std::mutex> lock(mutex);
    out.writeU64(tokens.size());
    for (const std::string &entry : tokens)
        out.writeString(entry);
    out.writeU64(hitCount);
    out.writeU64(missCount);
    out.writeU64(maxEntries);
    out.writeU64(capRejectedCount);
}

bool
IdentifierInterner::restoreState(common::BinReader &in)
{
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t count = in.readU64();
    if (!in.ok())
        return false;
    for (std::uint64_t expected = 0; expected < count; ++expected) {
        // Look up by a view into the image; only a text this table
        // has never seen is copied out of it.
        std::string_view entry = in.readStringView();
        if (!in.ok())
            return false;
        auto it = index.find(entry);
        IdToken token;
        if (it != index.end()) {
            token = it->second;
        } else {
            token = static_cast<IdToken>(tokens.size());
            tokens.emplace_back(entry);
            index.emplace(tokens.back(), token);
        }
        if (token != static_cast<IdToken>(expected)) {
            in.fail();
            return false;
        }
    }
    std::uint64_t hits = in.readU64();
    std::uint64_t misses = in.readU64();
    std::uint64_t cap = in.readU64();
    std::uint64_t rejected = in.readU64();
    if (!in.ok())
        return false;
    hitCount = hits;
    missCount = misses;
    maxEntries = static_cast<std::size_t>(cap);
    capRejectedCount = rejected;
    return true;
}

IdentifierInterner &
IdentifierInterner::process()
{
    static IdentifierInterner instance;
    return instance;
}

} // namespace cloudseer::logging

#include "logging/identifier_interner.hpp"

#include <algorithm>
#include <functional>

#include "common/error.hpp"

namespace cloudseer::logging {

namespace {

/** Slots in the first table; it holds 12 entries at load 3/4. */
constexpr std::size_t kMinSlots = 16;

std::uint32_t
hashOf(std::string_view value)
{
    const std::uint64_t h = std::hash<std::string_view>{}(value);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

} // namespace

std::size_t
IdentifierInterner::slotOf(std::string_view value,
                           std::uint32_t hash) const
{
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        const std::uint32_t entry = slots[i];
        if (entry == 0)
            return i;
        const IdToken token = entry - 1;
        if (hashes[token] == hash && tokens[token] == value)
            return i;
    }
}

std::size_t
IdentifierInterner::freeSlot(std::uint32_t hash) const
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = hash & mask;
    while (slots[i] != 0)
        i = (i + 1) & mask;
    return i;
}

IdToken
IdentifierInterner::append(std::string_view value, std::uint32_t hash,
                           std::size_t slot)
{
    const IdToken token = static_cast<IdToken>(tokens.size());
    CS_ASSERT(token != kInvalidIdToken, "identifier interner full");
    if ((tokens.size() + 1) * 4 > slots.size() * 3) {
        reserveEntries(tokens.size() + 1);
        slot = freeSlot(hash);
    }
    tokens.emplace_back(value);
    hashes.push_back(hash);
    slots[slot] = token + 1;
    return token;
}

void
IdentifierInterner::reserveEntries(std::size_t entries)
{
    if (entries * 4 <= slots.size() * 3)
        return;
    std::size_t capacity = std::max(kMinSlots, slots.size());
    while (entries * 4 > capacity * 3)
        capacity *= 2;
    // The stored hashes say where every token goes, so the old slots
    // are freed first, and the hashes move before the new slots are
    // allocated: growth never holds more than the grown table.
    slots = std::vector<std::uint32_t>();
    hashes.reserve(capacity / 4 * 3);
    slots.assign(capacity, 0);
    for (std::size_t token = 0; token < hashes.size(); ++token)
        slots[freeSlot(hashes[token])] = static_cast<std::uint32_t>(token + 1);
}

IdToken
IdentifierInterner::intern(std::string_view value)
{
    const std::uint32_t hash = hashOf(value);
    std::lock_guard<std::mutex> lock(mutex);
    std::size_t slot = 0;
    if (!slots.empty()) {
        slot = slotOf(value, hash);
        if (slots[slot] != 0) {
            ++hitCount;
            return slots[slot] - 1;
        }
    }
    if (maxEntries != 0 && tokens.size() >= maxEntries) {
        ++capRejectedCount;
        return kInvalidIdToken;
    }
    ++missCount;
    return append(value, hash, slot);
}

IdToken
IdentifierInterner::find(std::string_view value) const
{
    const std::uint32_t hash = hashOf(value);
    std::lock_guard<std::mutex> lock(mutex);
    if (slots.empty())
        return kInvalidIdToken;
    const std::uint32_t entry = slots[slotOf(value, hash)];
    return entry == 0 ? kInvalidIdToken : entry - 1;
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
    // Every entry carries at least its length word, so a count the
    // image cannot hold is refused before it sizes the table.
    if (count > in.remaining() / 8) {
        in.fail();
        return false;
    }
    reserveEntries(std::max(tokens.size(), static_cast<std::size_t>(count)));
    for (std::uint64_t expected = 0; expected < count; ++expected) {
        // Look up by a view into the image; only a text this table
        // has never seen is copied out of it.
        std::string_view entry = in.readStringView();
        if (!in.ok())
            return false;
        const std::uint32_t hash = hashOf(entry);
        const std::size_t slot = slotOf(entry, hash);
        const IdToken token =
            slots[slot] != 0 ? slots[slot] - 1 : append(entry, hash, slot);
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

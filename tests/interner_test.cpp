/**
 * @file
 * Differential test of IdentifierInterner against a reference model: a
 * std::unordered_map from text to token plus the texts in token order,
 * the layout the interner's flat open-addressed index replaced.
 *
 * A seeded stream of interns mixes fresh UUIDs and IPs, repeats, the
 * empty string, values sharing a long prefix and values one byte away
 * from an earlier one, with enough distinct entries for many growth
 * steps of the index. The interner must hand out the model's tokens and
 * agree on find, text, size, the hit/miss tallies and capacity
 * refusals; its snapshot must be byte-identical to a reference encoder,
 * restore into a fresh interner, and be refused over a diverged table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/binio.hpp"
#include "common/rng.hpp"
#include "common/uuid.hpp"
#include "logging/identifier_interner.hpp"

namespace {

using namespace cloudseer;
using logging::IdToken;
using logging::kInvalidIdToken;

/** What the interner must behave like. */
struct ReferenceInterner
{
    std::unordered_map<std::string, IdToken> index;
    std::vector<std::string> texts;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t capacity = 0;
    std::uint64_t capRejected = 0;

    IdToken
    intern(const std::string &value)
    {
        auto it = index.find(value);
        if (it != index.end()) {
            ++hits;
            return it->second;
        }
        if (capacity != 0 && texts.size() >= capacity) {
            ++capRejected;
            return kInvalidIdToken;
        }
        ++misses;
        const auto token = static_cast<IdToken>(texts.size());
        texts.push_back(value);
        index.emplace(value, token);
        return token;
    }

    IdToken
    find(const std::string &value) const
    {
        auto it = index.find(value);
        return it == index.end() ? kInvalidIdToken : it->second;
    }

    /** The snapshot layout: count, each text, then the tallies. */
    std::string
    encode() const
    {
        common::BinWriter out;
        out.writeU64(texts.size());
        for (const std::string &text : texts)
            out.writeString(text);
        out.writeU64(hits);
        out.writeU64(misses);
        out.writeU64(capacity);
        out.writeU64(capRejected);
        return out.takeBytes();
    }
};

/** Seeded values of every shape the extraction path can hand over. */
class ValueStream
{
  public:
    explicit ValueStream(std::uint64_t seed) : rng(seed) {}

    std::string
    next()
    {
        const int kind = rng.uniformInt(0, 99);
        std::string value;
        if (kind < 30 || seen.empty()) {
            value = common::makeUuid(rng);
        } else if (kind < 40) {
            value = common::makeIp(rng);
        } else if (kind < 42) {
            value = "";
        } else if (kind < 52) {
            // A long shared prefix: only the last characters differ.
            value = "req-0123456789abcdef-0123456789-" +
                    std::to_string(rng.uniformInt(0, 99999));
        } else if (kind < 62) {
            // One byte away from a value already seen.
            value = seen[pick(seen.size())];
            if (value.empty())
                value = "x";
            value[pick(value.size())] ^=
                static_cast<char>(rng.uniformInt(1, 127));
        } else {
            return seen[pick(seen.size())]; // a repeat
        }
        seen.push_back(value);
        return value;
    }

  private:
    std::size_t
    pick(std::size_t size)
    {
        return static_cast<std::size_t>(rng.uniformU64() % size);
    }

    common::Rng rng;
    std::vector<std::string> seen;
};

void
expectSameStats(const logging::IdentifierInterner &interner,
                const ReferenceInterner &model)
{
    const logging::InternerStats stats = interner.stats();
    EXPECT_EQ(stats.size, model.texts.size());
    EXPECT_EQ(stats.hits, model.hits);
    EXPECT_EQ(stats.misses, model.misses);
    EXPECT_EQ(stats.capacity, model.capacity);
    EXPECT_EQ(stats.capRejected, model.capRejected);
}

void
expectSameTable(const logging::IdentifierInterner &interner,
                const ReferenceInterner &model)
{
    ASSERT_EQ(interner.size(), model.texts.size());
    for (std::size_t token = 0; token < model.texts.size(); ++token) {
        const std::string &text = model.texts[token];
        ASSERT_EQ(interner.text(static_cast<IdToken>(token)), text);
        ASSERT_EQ(interner.find(text), static_cast<IdToken>(token));
    }
}

} // namespace

TEST(InternerDifferential, MatchesTheReferenceMapOverSeededInterns)
{
    constexpr int kInterns = 200000;
    logging::IdentifierInterner interner;
    ReferenceInterner model;
    ValueStream values(1);
    ValueStream probes(2); // mostly values the interner never saw
    for (int i = 0; i < kInterns; ++i) {
        const std::string value = values.next();
        ASSERT_EQ(interner.intern(value), model.intern(value))
            << "intern " << i;
        const std::string probe = probes.next();
        ASSERT_EQ(interner.find(probe), model.find(probe)) << "find " << i;
        if (i % 4096 == 0) {
            ASSERT_EQ(interner.size(), model.texts.size());
            expectSameStats(interner, model);
        }
    }
    // From the 12 entries the first table holds, at least three
    // doublings of the index.
    ASSERT_GT(model.texts.size(), 12u * 8u);
    std::printf("%zu distinct of %d interns, %llu hits\n",
                model.texts.size(), kInterns,
                static_cast<unsigned long long>(model.hits));
    expectSameTable(interner, model);
    expectSameStats(interner, model);
}

TEST(InternerDifferential, CapacityRefusalsMatchTheModel)
{
    logging::IdentifierInterner interner;
    ReferenceInterner model;
    ValueStream values(3);
    auto setCapacity = [&](std::size_t cap) {
        interner.setCapacity(cap);
        model.capacity = cap;
    };
    // Grow to a cap, then lower it below the size (existing tokens
    // stay valid, nothing new gets in), then lift it again.
    setCapacity(3000);
    for (int i = 0; i < 20000; ++i) {
        if (i == 8000)
            setCapacity(1000);
        if (i == 14000)
            setCapacity(0);
        const std::string value = values.next();
        ASSERT_EQ(interner.intern(value), model.intern(value))
            << "intern " << i;
    }
    EXPECT_GT(model.capRejected, 1000u);
    EXPECT_EQ(interner.capacityLimit(), 0u);
    expectSameTable(interner, model);
    expectSameStats(interner, model);
}

TEST(InternerDifferential, SnapshotBytesMatchTheReferenceEncoder)
{
    for (std::uint64_t seed = 4; seed < 8; ++seed) {
        logging::IdentifierInterner interner;
        ReferenceInterner model;
        if (seed % 2 == 0) {
            interner.setCapacity(500);
            model.capacity = 500;
        }
        ValueStream values(seed);
        for (int i = 0; i < 5000; ++i) {
            const std::string value = values.next();
            interner.intern(value);
            model.intern(value);
        }
        common::BinWriter out;
        interner.snapshotState(out);
        EXPECT_EQ(out.bytes(), model.encode()) << "seed " << seed;
    }
    // The empty table too.
    logging::IdentifierInterner empty;
    common::BinWriter out;
    empty.snapshotState(out);
    EXPECT_EQ(out.bytes(), ReferenceInterner{}.encode());
}

TEST(InternerDifferential, RestoreIntoAFreshInternerReproducesEveryToken)
{
    logging::IdentifierInterner source;
    ReferenceInterner model;
    ValueStream values(9);
    for (int i = 0; i < 50000; ++i) {
        const std::string value = values.next();
        source.intern(value);
        model.intern(value);
    }
    common::BinWriter out;
    source.snapshotState(out);

    logging::IdentifierInterner restored;
    common::BinReader in(out.bytes());
    ASSERT_TRUE(restored.restoreState(in));
    EXPECT_TRUE(in.atEnd());
    expectSameTable(restored, model);
    expectSameStats(restored, model);

    // Restoring the same image again, over the table it produced, is
    // the in-process restore: nothing changes.
    common::BinReader again(out.bytes());
    ASSERT_TRUE(restored.restoreState(again));
    expectSameTable(restored, model);

    // Both go on interning in lockstep with the model.
    for (int i = 0; i < 20000; ++i) {
        const std::string value = values.next();
        const IdToken want = model.intern(value);
        ASSERT_EQ(restored.intern(value), want);
        ASSERT_EQ(source.intern(value), want);
    }
    expectSameTable(restored, model);
    expectSameStats(restored, model);
}

TEST(InternerDifferential, RestoreOverADivergedTableIsRefused)
{
    logging::IdentifierInterner source;
    ValueStream values(10);
    for (int i = 0; i < 3000; ++i)
        source.intern(values.next());
    common::BinWriter out;
    source.snapshotState(out);

    // Same texts, one pair of tokens swapped.
    logging::IdentifierInterner swapped;
    swapped.intern(source.text(1));
    swapped.intern(source.text(0));
    common::BinReader in(out.bytes());
    EXPECT_FALSE(swapped.restoreState(in));
    EXPECT_FALSE(in.ok());

    // A longer table whose later entries differ is refused too, even
    // though every token the image's prefix names matches.
    logging::IdentifierInterner diverged;
    for (std::size_t token = 0; token < 1000; ++token)
        diverged.intern(source.text(static_cast<IdToken>(token)));
    diverged.intern("not-in-the-image");
    common::BinReader in2(out.bytes());
    EXPECT_FALSE(diverged.restoreState(in2));
}

TEST(InternerDifferential, RestoreRefusesAnEntryCountTheImageCannotHold)
{
    // Every entry carries at least its 8-byte length word: a count
    // above what the rest of the image could hold is refused before it
    // sizes anything.
    common::BinWriter out;
    out.writeU64(std::uint64_t{1} << 40);
    out.writeString("only-one");
    logging::IdentifierInterner interner;
    common::BinReader in(out.bytes());
    EXPECT_FALSE(interner.restoreState(in));
    EXPECT_EQ(interner.size(), 0u);

    // A truncated image of a real table is refused as well.
    logging::IdentifierInterner source;
    ValueStream values(12);
    for (int i = 0; i < 200; ++i)
        source.intern(values.next());
    common::BinWriter image;
    source.snapshotState(image);
    const std::string truncated =
        image.bytes().substr(0, image.bytes().size() / 2);
    logging::IdentifierInterner target;
    common::BinReader in2(truncated);
    EXPECT_FALSE(target.restoreState(in2));
}

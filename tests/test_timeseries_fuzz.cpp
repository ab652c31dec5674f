/**
 * @file
 * Seeded mutation fuzzing of the `vpm-ts-1` snapshot reader.
 *
 * Starts from the committed golden snapshot and feeds readSnapshot() byte
 * flips, truncations and stomped length/count fields. Every mutant must
 * either parse or be refused with a non-empty error — never crash, hang,
 * allocate far beyond the input, or hit undefined behaviour (the
 * sanitizer build runs this same test). Mutants that parse are rendered
 * through the bucket CSV writer, so the shared formatter sees arbitrary
 * decoded bits too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/timeseries.hpp"

namespace vpm::telemetry {
namespace {

std::string
goldenBytes()
{
    std::ifstream in(VPM_GOLDEN_DIR "/quickstart.vpmts", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Parse @p bytes; a refusal must say why, a success must render. */
void
expectParsesOrRefuses(const std::string &bytes, const std::string &what)
{
    std::istringstream in(bytes);
    TsSnapshot snap;
    std::string error;
    if (!readSnapshot(in, snap, &error)) {
        EXPECT_FALSE(error.empty()) << what << ": refused without a reason";
        return;
    }
    std::vector<std::string> names;
    for (const TsSnapshot::Series &series : snap.series)
        names.push_back(series.name);
    std::ostringstream csv;
    writeBucketCsv(snap, names, csv);
    EXPECT_FALSE(csv.str().empty()) << what;
}

/** A little-endian length or count field of the snapshot container. */
struct Field
{
    std::size_t offset;
    std::size_t width;
};

std::uint64_t
readLe(const std::string &bytes, std::size_t offset, std::size_t width)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i)
        v |= std::uint64_t{static_cast<unsigned char>(bytes[offset + i])}
             << (8 * i);
    return v;
}

void
writeLe(std::string &bytes, std::size_t offset, std::size_t width,
        std::uint64_t v)
{
    for (std::size_t i = 0; i < width; ++i)
        bytes[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/** Walk the container layout (see timeseries.hpp) and list every length
 *  and count field, plus the bucket interval and block timestamps. */
std::vector<Field>
containerFields(const std::string &bytes)
{
    std::vector<Field> fields{{8, 8}, {16, 4}}; // bucket_us, series_count
    std::size_t pos = 20;
    const auto series_count = readLe(bytes, 16, 4);
    for (std::uint64_t s = 0; s < series_count; ++s) {
        fields.push_back({pos, 2}); // name_len
        pos += 2 + readLe(bytes, pos, 2);
        fields.push_back({pos, 8}); // evicted
        fields.push_back({pos + 8, 4}); // block_count
        const auto blocks = readLe(bytes, pos + 8, 4);
        pos += 12;
        for (std::uint64_t b = 0; b < blocks; ++b) {
            fields.push_back({pos, 8});      // first_bucket_us
            fields.push_back({pos + 8, 4});  // bucket_count
            fields.push_back({pos + 12, 4}); // payload_len
            pos += 16 + readLe(bytes, pos + 12, 4);
        }
        fields.push_back({pos, 1}); // open-bucket flag
        pos += 1 + (bytes[pos] != 0 ? 48 : 0);
    }
    EXPECT_EQ(pos, bytes.size()) << "layout walk out of step with the file";
    return fields;
}

TEST(TimeSeriesFuzzTest, GoldenSnapshotParses)
{
    const std::string golden = goldenBytes();
    ASSERT_GT(golden.size(), 64u);
    std::istringstream in(golden);
    TsSnapshot snap;
    std::string error;
    ASSERT_TRUE(readSnapshot(in, snap, &error)) << error;
    EXPECT_NE(snap.find("cluster.power.watts"), nullptr);
}

TEST(TimeSeriesFuzzTest, ByteFlipsParseOrAreRefused)
{
    const std::string golden = goldenBytes();
    ASSERT_FALSE(golden.empty());
    std::mt19937_64 rng(0x5eed);
    std::uniform_int_distribution<std::size_t> pos(0, golden.size() - 1);
    std::uniform_int_distribution<int> flips(1, 8);
    std::uniform_int_distribution<int> bit(0, 7);
    for (int mutant = 0; mutant < 800; ++mutant) {
        std::string bytes = golden;
        const int n = flips(rng);
        for (int i = 0; i < n; ++i)
            bytes[pos(rng)] ^= static_cast<char>(1 << bit(rng));
        expectParsesOrRefuses(bytes, "flip mutant " + std::to_string(mutant));
    }
}

TEST(TimeSeriesFuzzTest, TruncationsAreRefused)
{
    const std::string golden = goldenBytes();
    ASSERT_FALSE(golden.empty());
    std::vector<std::size_t> cuts;
    for (const Field &field : containerFields(golden)) {
        cuts.push_back(field.offset);
        cuts.push_back(field.offset + field.width - 1);
    }
    std::mt19937_64 rng(0xc07);
    std::uniform_int_distribution<std::size_t> cut(0, golden.size() - 1);
    for (int i = 0; i < 300; ++i)
        cuts.push_back(cut(rng));
    for (const std::size_t length : cuts) {
        std::istringstream in(golden.substr(0, length));
        TsSnapshot snap;
        std::string error;
        EXPECT_FALSE(readSnapshot(in, snap, &error))
            << "accepted a snapshot cut at " << length;
        EXPECT_FALSE(error.empty()) << "cut at " << length;
    }
}

TEST(TimeSeriesFuzzTest, StompedLengthAndCountFieldsParseOrAreRefused)
{
    const std::string golden = goldenBytes();
    ASSERT_FALSE(golden.empty());
    std::mt19937_64 rng(0xf1e1d);
    for (const Field &field : containerFields(golden)) {
        const std::uint64_t original = readLe(golden, field.offset,
                                              field.width);
        const std::uint64_t top = field.width == 8
                                      ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << (8 * field.width)) - 1;
        for (const std::uint64_t value :
             {std::uint64_t{0}, std::uint64_t{1}, top, top - 1, top / 2 + 1,
              original + 1, original - 1, rng() & top}) {
            std::string bytes = golden;
            writeLe(bytes, field.offset, field.width, value & top);
            expectParsesOrRefuses(bytes,
                                  "field @" + std::to_string(field.offset) +
                                      " = " + std::to_string(value & top));
        }
    }
}

} // namespace
} // namespace vpm::telemetry

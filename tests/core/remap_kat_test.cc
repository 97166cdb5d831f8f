// Known-answer rows for the keyed mix and every Remapper function, checked
// in from the layered byte-LUT rendering (S-box layer, then P-box delta
// swaps, then σ rotate-XORs, round by round). Any rendering of mix() must
// reproduce them bit for bit: they anchor the R functions to data rather
// than to a second implementation kept alive as an oracle.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/remap.h"
#include "util/rng.h"

namespace stbpu::core {
namespace {

constexpr std::array<std::uint64_t, 7> kTweaks = {
    Remapper::kTweakR1,      Remapper::kTweakR2,    Remapper::kTweakR3, Remapper::kTweakR4,
    Remapper::kTweakRtIndex, Remapper::kTweakRtTag, Remapper::kTweakRp};

constexpr std::array<std::uint32_t, 4> kPsis = {0u, 1u, 0xFFFF'FFFFu, 0x6A09'E667u};

/// (lo, hi) operands: zero, the lowest bit of each, the full 48-bit
/// address, the top bit of each, all ones, and one arbitrary pair.
constexpr std::array<std::array<std::uint64_t, 2>, 8> kOperands = {{
    {0, 0},
    {1, 0},
    {0, 1},
    {0xFFFF'FFFF'FFFFULL, 0},
    {0x8000'0000'0000'0000ULL, 0},
    {0, 0x8000'0000'0000'0000ULL},
    {~0ULL, ~0ULL},
    {0x0000'7F3A'91C4'5E28ULL, 0xD1B5'4A32'D192'ED03ULL},
}};

/// kMixKat[tweak][ψ][operand] = detail::mix(lo, hi, ψ, tweak).
constexpr std::uint64_t kMixKat[7][4][8] = {
    {  // Remapper::kTweakR1
        {0x2125169E668614BCULL, 0x0BDF28F3817E2F1CULL, 0x6647545DCF61A1F5ULL, 0xEE909D5AD1FFE6F4ULL,
         0x3C3AFC7B315E0E43ULL, 0xA16285449F36CF9BULL, 0x8A4BD23FB0649B6FULL, 0xFD6D4C1336FA30A3ULL},
        {0x766923726B026476ULL, 0xF45C611CB8634080ULL, 0xC750478A2A267F4EULL, 0x42AF424CCFAF87F1ULL,
         0x1FA3648D8E21C0B0ULL, 0xAED469FF02AB953EULL, 0xF928C042E978DEBFULL, 0xDBEB55621CC2BCAFULL},
        {0xD597EAFE536F0305ULL, 0x7D48CD0847A0CF91ULL, 0x503CC7248B15C16CULL, 0x04AD573AD1CB67D1ULL,
         0x1F5643D65EFFFCD7ULL, 0x48E195B877166783ULL, 0xE773AD8096106FF7ULL, 0xBA0CF5297311C81FULL},
        {0x4F97D597CECA2955ULL, 0x67D8C351115867C6ULL, 0xE745033B55DC463CULL, 0x2B6BAC25EE27AB17ULL,
         0xFFC4579945245B49ULL, 0x1E6162920C862E77ULL, 0x3F77A1A98A3DD47FULL, 0xD311962EDD98E3C1ULL},
    },
    {  // Remapper::kTweakR2
        {0x3327F25C4F87A4C4ULL, 0xFA558AF5ABD9FBD0ULL, 0x96A57CB82E386D4BULL, 0xAEC5F1CD0257C8BCULL,
         0x9724AA66C2436E62ULL, 0x0E2BADA1B0F84501ULL, 0x1C76063B76AE9417ULL, 0x6B462F8126A53915ULL},
        {0xDB5DB81D751576DFULL, 0xF2CBFBE9EAA8F903ULL, 0x8D834770A517DBB2ULL, 0xBFBB9F419B36AAAEULL,
         0xABAF8262C63E6C25ULL, 0x604A9DDAA7285850ULL, 0x93B8BA52D467C4AAULL, 0xBB882A15BB562FA7ULL},
        {0x76D4C1E8306E06DDULL, 0xB0FB7A0E7DB159F0ULL, 0x2DE4382F81C3563DULL, 0xC3F74E6990629A6AULL,
         0xD5D64BF770BEEAD6ULL, 0x1C62481698657444ULL, 0x4C371CD9896FE0AAULL, 0x146ED3B21093B8A6ULL},
        {0x13E06AB0A90BAF42ULL, 0x781BEAEBD651E468ULL, 0xA39AF40382F26654ULL, 0xF5CB9D3DE1D85340ULL,
         0x9C97168BC062AC97ULL, 0x9DC98ED0A9CD85EFULL, 0x63B5E5D1233A4B2AULL, 0x8FAD37C94432FCF8ULL},
    },
    {  // Remapper::kTweakR3
        {0x2A1E7905604A2CB7ULL, 0x022B7CAA9D707676ULL, 0x6CD1B624BE6B7818ULL, 0x657B8C282067654FULL,
         0x587F006590F97BCCULL, 0xBFA789DAAA0CE82DULL, 0xB795B59B8283E19DULL, 0x934E6664A05E8772ULL},
        {0x754110A9E8F7D61EULL, 0xC5140C224F9D5C9FULL, 0xF670A123D03A0643ULL, 0x47CD01CD021C9D7AULL,
         0x57184E20CA22FAB4ULL, 0x9EB88AB2230D0569ULL, 0xE884934055F7C5A5ULL, 0x02463DB33CA74337ULL},
        {0x4ACA89A22CE38EF9ULL, 0x5283F68D0E55C0BFULL, 0x30950A8E1684D239ULL, 0x2B3251680FCF1C5BULL,
         0x776AE005AC195D64ULL, 0x03D6172B09E93E5AULL, 0x245FFD7D1358DC07ULL, 0x4C76BF5A0255577EULL},
        {0xB49405A243A89D55ULL, 0xE3E376D37CCC3AA7ULL, 0xC05232D5E99D244BULL, 0x6E817303E30C4E42ULL,
         0xF010AF2A80A54430ULL, 0xF99716248CE368B8ULL, 0x12309E3F1B5F0FA6ULL, 0xA4BCD6E235C2B823ULL},
    },
    {  // Remapper::kTweakR4
        {0xD95C43BDEE485600ULL, 0x7F7A0952CF20CC94ULL, 0xC676766A1D3321AAULL, 0x8E605DDD0E0E9C83ULL,
         0x8AA9E5CAAE5BBA1DULL, 0x3278F8F83125AD99ULL, 0xA81B3D325DA79304ULL, 0x370F354BF55B141EULL},
        {0x7FE6372ADD00F4A8ULL, 0xE7D2FC258DB023FCULL, 0xC4895DAE68913427ULL, 0xEE4F1894C9AB8A81ULL,
         0xA383692EBF71C852ULL, 0xC4B4100D403F8AA8ULL, 0x24B20D58F5DB0987ULL, 0x3961022A036CE7B1ULL},
        {0xF2729E31E4B481E3ULL, 0xEA082BCD8034FD16ULL, 0xE53F077D6A023BAEULL, 0xD416E8BCC7E93E7AULL,
         0xA5C201D0407BFB93ULL, 0x768A008421808E70ULL, 0x04256603C2987050ULL, 0x6D4ADFB065D36FD0ULL},
        {0x3DF9BC4C01E67DE0ULL, 0x4032DD421840F255ULL, 0xDA53CCBF49F9BB07ULL, 0x533F07D2E56F8CE2ULL,
         0xAEC629A2561D3B66ULL, 0x44970C7D3105EF5FULL, 0x29C474146383AD10ULL, 0x11E81FA2121B4CF5ULL},
    },
    {  // Remapper::kTweakRtIndex
        {0xDBCFA623CC13D00FULL, 0xCAA5E98A66671A58ULL, 0x33D11455C5F18FE4ULL, 0x6692EB298C8E2468ULL,
         0xC7DFD2B2DCAB2A18ULL, 0x1B59A14DF5636B0AULL, 0xD831027E63B9A813ULL, 0x062147529011A078ULL},
        {0xF56351239FDD2633ULL, 0xB428377B85046BD2ULL, 0xB111AD0C95ABA42FULL, 0x8FEC5883A5F7AD08ULL,
         0xBF51E8CDDA69C4EBULL, 0xBEBC5690CA829866ULL, 0x2FD903900D344AC0ULL, 0xA9F6A46768F073F1ULL},
        {0xDA9ACB28BC93276FULL, 0x5A2C1E26562C9E1CULL, 0xFCFC439F31A19323ULL, 0xA4C61CD4372A3630ULL,
         0x3E4E819417854EDEULL, 0x1A4E87087A233536ULL, 0x5FE8BBAC33FBBD7EULL, 0x3C34D34FB2D56EF9ULL},
        {0xF3DF4CE8FA0EF50AULL, 0x1B1EF76969F34E9BULL, 0x80E02DAF5EBC425FULL, 0xCE7636831EABA29EULL,
         0x533BF531D6CAF177ULL, 0x61CE202332F6A5D2ULL, 0x8E4874440ED84B18ULL, 0xF83CA87778068346ULL},
    },
    {  // Remapper::kTweakRtTag
        {0xE335470CC2D043E3ULL, 0xBC60489E6AD33C76ULL, 0x797EC36C93E8419DULL, 0x743101C8BDE92ACEULL,
         0x2D8536F3B99BB132ULL, 0xE79F2F03C5DD64AFULL, 0xB93FA0239810AEF4ULL, 0x03DD7F5323C85156ULL},
        {0xF2B2724A65020AF4ULL, 0x65EBBCEEA9FD74C6ULL, 0x0CD0FBA8569566D1ULL, 0x6969F68C3428ABECULL,
         0x59B5CF5B1C106BE2ULL, 0x3E84662E43EE7646ULL, 0xFB4D5FC0EBB40FC5ULL, 0x64A9C9D52E5FA7A9ULL},
        {0xE0F6BA6BB452606DULL, 0x904EF6E6ADABB669ULL, 0xA9D7D596A658B4DBULL, 0x3B7E50C88C60C243ULL,
         0x19D005434A31DC66ULL, 0xFB0CD7D3D2A35037ULL, 0xE8CB13F2E8635CC0ULL, 0x22CDF5B170436490ULL},
        {0x58EDDF6F8EF9C5FFULL, 0xE7781D7415776DC0ULL, 0x6D4F107F8BE12ADAULL, 0x6FE4B5B2985E0E44ULL,
         0x1323B5BC8F51527BULL, 0xFF72AABC0BA84643ULL, 0x9D4A1D73260749D0ULL, 0x364658C1D5AF5D57ULL},
    },
    {  // Remapper::kTweakRp
        {0xFB2D3BACF4CFA462ULL, 0xC7C193B1E3D28715ULL, 0x9AB90ECC32AAAF61ULL, 0x3CEA26C8EDCBD3D2ULL,
         0xC6D084D4FCCB452BULL, 0xDEC6F44E2481AC4CULL, 0xB55339A7FFBCFEE2ULL, 0xCB27DC997D794DC3ULL},
        {0x0719DDB54086095DULL, 0xE256150921EDC105ULL, 0x2A5702132F56CF57ULL, 0xFFC0E52BCF927BC0ULL,
         0xB102D41857053BBDULL, 0x83C9DB1A06E27A7DULL, 0x7A1292BCCEAE85D3ULL, 0x400C564F1CC5AC08ULL},
        {0x76CBCE4B9E185799ULL, 0x860C61DC5EB01FC7ULL, 0x19C085BF3CFE9BDFULL, 0xD86EA1C207BDBF6EULL,
         0xCA7557D10E92C5D8ULL, 0xBA6CD57817509838ULL, 0x8E948D41234A7DD0ULL, 0x98A2C15B20EA5CA0ULL},
        {0x32597DAADA386A00ULL, 0x3F73753F4A69BCFDULL, 0x4F1BD60BF7580998ULL, 0x5876398A84D686CBULL,
         0xD6AB157CE365F35FULL, 0x75613020F117BE45ULL, 0xFD91AB8E5BA2A6EDULL, 0x1406741F06B06288ULL},
    },
};

TEST(RemapKat, MixMatchesKnownAnswers) {
  for (std::size_t t = 0; t < kTweaks.size(); ++t) {
    for (std::size_t p = 0; p < kPsis.size(); ++p) {
      for (std::size_t o = 0; o < kOperands.size(); ++o) {
        EXPECT_EQ(detail::mix(kOperands[o][0], kOperands[o][1], kPsis[p], kTweaks[t]),
                  kMixKat[t][p][o])
            << "tweak " << t << " psi " << p << " operand " << o;
      }
    }
  }
}

// Fixed inputs of the Remapper rows below.
constexpr std::uint64_t kIp = 0x7F3A'91C4'5E28ULL;
constexpr std::uint64_t kGhr = 0xBEEF;
constexpr std::uint64_t kBhb = 0x03A5'5A5A'C3C3'0F0FULL;
constexpr std::uint64_t kFoldedHist = 0x1F2E'3D4CULL;

std::uint64_t pack(bpu::BtbIndex b) {
  return std::uint64_t{b.set} | (b.tag << 16) | (std::uint64_t{b.offset} << 32);
}

struct FunctionRow {
  const char* name;
  std::uint64_t (*fn)(std::uint32_t psi);
  std::array<std::uint64_t, 4> expected;  ///< one answer per kPsis entry
};

// BtbIndex results are packed as set | tag << 16 | offset << 32.
const FunctionRow kFunctionRows[] = {
    {"r1", [](std::uint32_t psi) { return pack(Remapper::r1(psi, kIp)); },
     {0x800FB01FC, 0x400EC0013, 0x1F00E2000E, 0x1E00E90088}},
    {"r2", [](std::uint32_t psi) -> std::uint64_t { return Remapper::r2(psi, kBhb); },
     {0xF5, 0xC5, 0xB4, 0x6}},
    {"r3", [](std::uint32_t psi) -> std::uint64_t { return Remapper::r3(psi, kIp); },
     {0x1C21, 0x86F, 0x3FA0, 0x29CE}},
    {"r4", [](std::uint32_t psi) -> std::uint64_t { return Remapper::r4(psi, kIp, kGhr); },
     {0x1CE0, 0x2167, 0x3BB0, 0x2FC9}},
    {"rt_index",
     [](std::uint32_t psi) -> std::uint64_t {
       return Remapper::rt_index(psi, kIp, kFoldedHist, 5, 13);
     },
     {0x1D38, 0x3C7, 0x1EAC, 0x304}},
    {"rt_tag",
     [](std::uint32_t psi) -> std::uint64_t {
       return Remapper::rt_tag(psi, kIp, kFoldedHist, 5, 12);
     },
     {0xF2D, 0xBE2, 0x3E2, 0xC0F}},
    {"rp", [](std::uint32_t psi) -> std::uint64_t { return Remapper::rp(psi, kIp, 10); },
     {0x3E0, 0x1DA, 0x106, 0x3B0}},
    {"r1_scaled", [](std::uint32_t psi) { return pack(Remapper::r1_scaled(psi, kIp, 6, 5, 3)); },
     {0x6001F003C, 0x300000013, 0x10000E, 0x2000A0008}},
};

TEST(RemapKat, RemapperFunctionsMatchKnownAnswers) {
  for (const FunctionRow& row : kFunctionRows) {
    for (std::size_t p = 0; p < kPsis.size(); ++p) {
      EXPECT_EQ(row.fn(kPsis[p]), row.expected[p]) << row.name << " psi " << p;
    }
  }
}

// Every round-table entry is the layered round — S-box byte, then the
// P-box delta swaps, then σ (and the final fold in round 3) — applied to
// one byte position, spelled out here from the layer primitives.
TEST(RemapKat, RoundTableEntriesAreLayeredRounds) {
  using namespace detail;
  for (unsigned j = 0; j < 8; ++j) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint64_t present = std::uint64_t{kPresentByteLut[b]} << (8 * j);
      const std::uint64_t spongent = std::uint64_t{kSpongentByteLut[b]} << (8 * j);
      ASSERT_EQ(kMixRound1[j][b], sigma(pbox_a(present), 19, 43)) << j << " " << b;
      ASSERT_EQ(kMixRound2[j][b], sigma(pbox_b(spongent), 11, 50)) << j << " " << b;
      const std::uint64_t s3 = sigma(present, 29, 39);
      ASSERT_EQ(kMixRound3[j][b], s3 ^ (s3 >> 31)) << j << " " << b;
    }
  }
}

// The XOR of the eight table entries is the whole layered round.
TEST(RemapKat, TableRoundEqualsLayeredRound) {
  using namespace detail;
  util::Xoshiro256 rng(21);
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t x = rng();
    ASSERT_EQ(table_round(kMixRound1, x),
              sigma(pbox_a(sbox_layer<kPresentByteLut>(x)), 19, 43));
    ASSERT_EQ(table_round(kMixRound2, x),
              sigma(pbox_b(sbox_layer<kSpongentByteLut>(x)), 11, 50));
    const std::uint64_t s3 = sigma(sbox_layer<kPresentByteLut>(x), 29, 39);
    ASSERT_EQ(table_round(kMixRound3, x), s3 ^ (s3 >> 31));
  }
}

}  // namespace
}  // namespace stbpu::core

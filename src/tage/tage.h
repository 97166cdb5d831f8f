// TAGE-SC-L conditional predictor (Seznec [67]), parameterized for the
// paper's 8KB and 64KB configurations. Structure:
//   * bimodal base table (the "base directional predictor" that reuse-based
//     attacks like BranchScope/BlueThunder target — paper §VI-A2);
//   * N partially-tagged tables indexed by geometrically growing global
//     history lengths, 3-bit prediction counters, 2-bit useful counters;
//   * a loop predictor (L) capturing constant trip counts;
//   * a lightweight GEHL-style statistical corrector (SC).
// All index/tag computation goes through the mapping type (Rt under
// STBPU — Table II: 10-bit index/8-bit tag for 8KB, 13/12 for 64KB), so the
// secured variant differs only in data representation.
//
// Template over the mapping: every per-table Rt index/tag computation
// inlines into the table walk — the per-branch hot loop that dominates
// TAGE simulation cost. Mappings with the bpu::RtBatch capability compute
// all tables' Rt outputs (and the loop tag) in one fused call per
// prediction instead (core::Remapper::rt_all).
//
// The tagged tables are one flat array of packed 32-bit entries (16-bit
// tag, 3-bit counter biased by 4, 2-bit useful counter, valid bit), so a
// prediction loads every table's entry, builds a match mask with one
// compare per table and takes the provider and alternate as the mask's two
// highest set bits — no data-dependent branch in the walk.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bpu/direction.h"
#include "bpu/mapping.h"
#include "bpu/types.h"
#include "util/bits.h"
#include "util/rng.h"
#include "util/saturating_counter.h"

namespace stbpu::tage {

struct TageConfig {
  std::string_view name = "TAGE_SC_L_64KB";
  unsigned num_tables = 10;    ///< tagged tables, 1..32
  unsigned index_bits = 13;    ///< per-table entries = 2^index_bits
  unsigned tag_bits = 12;      ///< at most 16 (the packed entry's tag field)
  unsigned min_history = 4;
  unsigned max_history = 256;
  unsigned bimodal_bits = 13;  ///< base table entries = 2^bimodal_bits
  bool use_loop_predictor = true;
  bool use_statistical_corrector = true;

  [[nodiscard]] static TageConfig kb64() { return {}; }
  [[nodiscard]] static TageConfig kb8() {
    return {.name = "TAGE_SC_L_8KB",
            .num_tables = 6,
            .index_bits = 10,
            .tag_bits = 8,
            .min_history = 4,
            .max_history = 64,
            .bimodal_bits = 12,
            .use_loop_predictor = true,
            .use_statistical_corrector = true};
  }
};

namespace detail {
inline constexpr int kScThreshold = 8;        // SC override confidence
inline constexpr std::uint32_t kTickPeriod = 1u << 18;  // useful-counter decay period
}  // namespace detail

template <class Mapping>
class TagePredictorT final {
 public:
  TagePredictorT(const TageConfig& cfg, const Mapping* mapping,
                 std::uint64_t seed = 0x7A6E);

  [[nodiscard]] bpu::DirPrediction predict(std::uint64_t ip,
                                           const bpu::ExecContext& ctx);
  void update(std::uint64_t ip, const bpu::ExecContext& ctx, bool taken,
              const bpu::DirPrediction& pred);
  void track(const bpu::BranchRecord& rec);
  void flush();
  void flush_hart(std::uint8_t hart);
  [[nodiscard]] std::string_view name() const { return cfg_.name; }

  [[nodiscard]] const TageConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::vector<unsigned>& history_lengths() const noexcept {
    return history_lengths_;
  }

  /// Per-hart global history with incrementally maintained folded values
  /// (standard TAGE circular-shift-register folding). Public so tests can
  /// check the folds against a from-scratch fold (hart_state()).
  struct HartState {
    std::vector<std::uint8_t> history;  ///< circular buffer, newest at head
    unsigned head = 0;
    std::uint64_t path = 0;
    // Folds in structure-of-arrays form: index folds occupy [0, n), tag
    // folds [n, 2n) for n tables. The per-fold constants (outgoing-bit ring
    // offset, insertion shift, folded width, value mask) are precomputed at
    // construction so the advance loop below is pure shift/XOR arithmetic —
    // the naive per-fold `% size` / `% comp_length` forms cost two hardware
    // divides per fold per branch, which dominated the walk.
    std::vector<std::uint32_t> fold_value;
    std::vector<std::uint32_t> fold_back;   ///< ring offset of the outgoing bit
    std::vector<std::uint32_t> fold_shift;  ///< orig_length % comp_length
    std::vector<std::uint32_t> fold_comp;   ///< folded width
    std::vector<std::uint32_t> fold_mask;   ///< (1 << comp) - 1

    [[nodiscard]] std::uint32_t fold_index_value(unsigned table) const noexcept {
      return fold_value[table];
    }
    [[nodiscard]] std::uint32_t fold_tag_value(unsigned table) const noexcept {
      return fold_value[(fold_value.size() >> 1) + table];
    }

    /// Advance by one resolved branch: push the outcome bit, refresh every
    /// table's folds (canonical TAGE circular folding: shift in the newest
    /// bit, XOR out the bit leaving the history window), fold the path. The
    /// ONE implementation of history advance — update() and track() both
    /// run this.
    void advance(bool taken, std::uint64_t ip) {
      const unsigned size = static_cast<unsigned>(history.size());
      head = head + 1 == size ? 0 : head + 1;
      const std::uint32_t newest = taken ? 1u : 0u;
      history[head] = static_cast<std::uint8_t>(newest);
      const std::size_t nf = fold_value.size();
      for (std::size_t j = 0; j < nf; ++j) {
        unsigned idx = head + fold_back[j];
        if (idx >= size) idx -= size;
        std::uint32_t v = (fold_value[j] << 1) | newest;
        v ^= static_cast<std::uint32_t>(history[idx]) << fold_shift[j];
        v ^= v >> fold_comp[j];
        fold_value[j] = v & fold_mask[j];
      }
      path = (path << 1) ^ util::bits(ip, 2, 16);
    }
  };
  /// Hart `hart`'s live history and fold state (read-only).
  [[nodiscard]] const HartState& hart_state(std::uint8_t hart) const noexcept {
    return harts_[hart & 1];
  }

  /// The 64-bit folded-history key handed to the mapping's Rt index for
  /// `table`: both folds plus a path slice.
  [[nodiscard]] static std::uint64_t folded_key(const HartState& hs,
                                                unsigned table) noexcept {
    return static_cast<std::uint64_t>(hs.fold_index_value(table)) |
           (static_cast<std::uint64_t>(hs.fold_tag_value(table)) << 20) |
           (util::bits(hs.path, 0, 12) << 44);
  }

  /// The Rt tag's key, derived from the index-side one (the tag pack
  /// scrambles the base differently, by design).
  [[nodiscard]] static constexpr std::uint64_t tag_key(std::uint64_t base) noexcept {
    return base ^ (base >> 7) ^ 0x5A5AULL;
  }

 private:
  /// A tagged-table entry packed into one word: the tag in bits 0-15, the
  /// 3-bit prediction counter biased by 4 in bits 16-18 (so bit 18 is the
  /// predicted direction), the 2-bit useful counter in bits 19-20 and the
  /// valid bit at 21. The reset entry is invalid with a zero counter.
  struct Packed {
    static constexpr unsigned kTagMax = 16;
    static constexpr unsigned kCtrShift = 16;
    static constexpr unsigned kUsefulShift = 19;
    static constexpr std::uint32_t kValid = 1u << 21;
    static constexpr std::uint32_t kMatchField = kValid | 0xFFFFu;
    static constexpr std::uint32_t kReset = 4u << kCtrShift;

    [[nodiscard]] static constexpr unsigned ctr(std::uint32_t e) noexcept {
      return (e >> kCtrShift) & 7;
    }
    [[nodiscard]] static constexpr bool taken(std::uint32_t e) noexcept {
      return ((e >> (kCtrShift + 2)) & 1) != 0;
    }
    /// Counter value 0 or -1.
    [[nodiscard]] static constexpr bool weak(std::uint32_t e) noexcept {
      return ctr(e) - 3 < 2;
    }
    [[nodiscard]] static constexpr unsigned useful(std::uint32_t e) noexcept {
      return (e >> kUsefulShift) & 3;
    }
    static constexpr void update_ctr(std::uint32_t& e, bool taken) noexcept {
      const unsigned c = ctr(e);
      if (taken ? c < 7 : c > 0) e = taken ? e + (1u << kCtrShift) : e - (1u << kCtrShift);
    }
    static constexpr void update_useful(std::uint32_t& e, bool up) noexcept {
      const unsigned u = useful(e);
      if (up ? u < 3 : u > 0) e = up ? e + (1u << kUsefulShift) : e - (1u << kUsefulShift);
    }
    static constexpr void decay_useful(std::uint32_t& e) noexcept {
      e -= useful(e) != 0 ? 1u << kUsefulShift : 0u;
    }
    /// A freshly allocated entry: valid, useful 0, counter 0 (taken) or -1.
    [[nodiscard]] static constexpr std::uint32_t allocate(std::uint32_t tag,
                                                          bool taken) noexcept {
      return kValid | ((taken ? 4u : 3u) << kCtrShift) | tag;
    }
  };

  struct LoopEntry {
    std::uint32_t tag = 0;
    std::uint16_t past_iters = 0;     ///< learned trip count
    std::uint16_t current_iter = 0;
    util::SaturatingCounter<2> conf{0};
    bool valid = false;
  };

  struct TableMatch {
    int table = -1;  ///< -1: bimodal
    std::uint32_t index = 0;  ///< bimodal index, or the flat entry index
    bool prediction = false;
    bool weak = false;
  };

  [[nodiscard]] std::size_t entry_index(unsigned table, std::uint32_t idx) const noexcept {
    return (std::size_t{table} << cfg_.index_bits) | idx;
  }
  [[nodiscard]] TableMatch tagged_match(unsigned table, std::uint32_t idx) const noexcept {
    const std::size_t i = entry_index(table, idx);
    return {.table = static_cast<int>(table),
            .index = static_cast<std::uint32_t>(i),
            .prediction = Packed::taken(tables_[i]),
            .weak = Packed::weak(tables_[i])};
  }

  [[nodiscard]] std::uint32_t bimodal_index(std::uint64_t ip,
                                            const bpu::ExecContext& ctx) const;
  [[nodiscard]] std::uint32_t pht1_of(std::uint64_t ip, const bpu::ExecContext& ctx) const;
  [[nodiscard]] std::uint32_t sc_row_of(std::uint64_t ip, const bpu::ExecContext& ctx) const;
  void loop_keys(std::uint64_t ip, const bpu::ExecContext& ctx) const;
  void find_matches(std::uint64_t ip, const bpu::ExecContext& ctx, TableMatch& provider,
                    TableMatch& alt);
  [[nodiscard]] bool loop_predict(std::uint64_t ip, const bpu::ExecContext& ctx,
                                  bool& valid) const;
  void loop_update(std::uint64_t ip, const bpu::ExecContext& ctx, bool taken);
  [[nodiscard]] int sc_sum(std::uint64_t ip, const bpu::ExecContext& ctx,
                           bool tage_pred) const;
  void sc_update(std::uint64_t ip, const bpu::ExecContext& ctx, bool taken,
                 bool tage_pred);

  TageConfig cfg_;
  const Mapping* mapping_;
  std::vector<unsigned> history_lengths_;
  std::vector<std::uint32_t> tables_;  ///< entry_index(t, i) → Packed word
  std::vector<util::SaturatingCounter<2>> bimodal_;
  std::vector<LoopEntry> loop_;
  // SC: bias table + two GEHL history tables of 6-bit signed counters.
  std::vector<util::SignedSaturatingCounter<6>> sc_bias_;
  std::array<std::vector<util::SignedSaturatingCounter<6>>, 2> sc_gehl_;
  util::SignedSaturatingCounter<4> use_alt_on_na_;
  HartState harts_[2];
  util::Xoshiro256 rng_;
  std::uint32_t tick_ = 0;

  // Transient state between predict() and update() for the same branch —
  // the simulator always pairs them, matching speculative update repair.
  // ψ and the fold state are stable for the whole predict→update pair (the
  // monitor fires at the end of the access, history advances at the end of
  // update), so every cached value below is bit-identical to a recompute.
  struct Scratch {
    TableMatch provider, alt;
    bool tage_pred = false;
    bool loop_valid = false;
    bool loop_pred = false;
    bool sc_used = false;
    bool final_pred = false;
    // Prediction-time per-table indices (masked) and tags of every table;
    // update()'s allocate/aging paths reuse them instead of recomputing
    // folds + mapping hashes per table.
    std::vector<std::uint32_t> gi;
    std::vector<std::uint32_t> gtag;
    // Per-table Rt index/tag keys staged for the batched mapping call.
    std::vector<std::uint64_t> rt_index_key;
    std::vector<std::uint64_t> rt_tag_key;
    // Lazily shared sub-keys (each otherwise computed 2-4x per branch).
    std::uint32_t pht1 = 0;
    std::uint32_t sc_row = 0;
    std::uint32_t loop_row = 0;
    std::uint32_t loop_tag = 0;
    bool pht1_valid = false;
    bool sc_row_valid = false;
    bool loop_keys_valid = false;
  };
  mutable Scratch scratch_;
};

// ---------------------------------------------------------------------------
// Implementation.
// ---------------------------------------------------------------------------

template <class Mapping>
TagePredictorT<Mapping>::TagePredictorT(const TageConfig& cfg, const Mapping* mapping,
                                        std::uint64_t seed)
    : cfg_(cfg), mapping_(mapping), rng_(seed) {
  if (cfg_.tag_bits > Packed::kTagMax) {
    throw std::invalid_argument("TAGE tag_bits " + std::to_string(cfg_.tag_bits) +
                                " exceeds the packed entry's 16-bit tag field");
  }
  if (cfg_.num_tables == 0 || cfg_.num_tables > 32) {
    throw std::invalid_argument("TAGE num_tables " + std::to_string(cfg_.num_tables) +
                                " outside 1..32 (the match mask has 32 bits)");
  }
  // Geometric history series L(i) = min * (max/min)^(i/(N-1)) (Seznec).
  history_lengths_.resize(cfg_.num_tables);
  for (unsigned i = 0; i < cfg_.num_tables; ++i) {
    const double frac = cfg_.num_tables == 1
                            ? 1.0
                            : static_cast<double>(i) / (cfg_.num_tables - 1);
    const double len = cfg_.min_history *
                       std::pow(static_cast<double>(cfg_.max_history) / cfg_.min_history, frac);
    history_lengths_[i] = std::max<unsigned>(cfg_.min_history,
                                             static_cast<unsigned>(len + 0.5));
    if (i > 0 && history_lengths_[i] <= history_lengths_[i - 1]) {
      history_lengths_[i] = history_lengths_[i - 1] + 1;
    }
  }

  tables_.assign(std::size_t{cfg_.num_tables} << cfg_.index_bits, Packed::kReset);
  bimodal_.assign(std::size_t{1} << cfg_.bimodal_bits, util::SaturatingCounter<2>{});
  loop_.assign(64, LoopEntry{});
  sc_bias_.assign(1u << 11, util::SignedSaturatingCounter<6>{});
  for (auto& t : sc_gehl_) t.assign(1u << 10, util::SignedSaturatingCounter<6>{});

  const unsigned hist_buf = cfg_.max_history + 8;
  for (auto& hs : harts_) {
    hs.history.assign(hist_buf, 0);
    hs.head = 0;
    hs.path = 0;
    const unsigned n = cfg_.num_tables;
    hs.fold_value.assign(2 * n, 0);
    hs.fold_back.resize(2 * n);
    hs.fold_shift.resize(2 * n);
    hs.fold_comp.resize(2 * n);
    hs.fold_mask.resize(2 * n);
    for (unsigned t = 0; t < n; ++t) {
      const unsigned len = history_lengths_[t];
      // Index fold at slot t, tag fold at slot n + t.
      const unsigned comps[2] = {cfg_.index_bits, cfg_.tag_bits};
      for (unsigned half = 0; half < 2; ++half) {
        const unsigned j = half * n + t;
        hs.fold_back[j] = hist_buf - len % hist_buf;
        hs.fold_shift[j] = len % comps[half];
        hs.fold_comp[j] = comps[half];
        hs.fold_mask[j] = (1u << comps[half]) - 1;
      }
    }
  }
  scratch_.gi.resize(cfg_.num_tables);
  scratch_.gtag.resize(cfg_.num_tables);
  if constexpr (bpu::RtBatch<Mapping>) {
    scratch_.rt_index_key.resize(cfg_.num_tables);
    scratch_.rt_tag_key.resize(cfg_.num_tables);
  }
}

template <class Mapping>
std::uint32_t TagePredictorT<Mapping>::pht1_of(std::uint64_t ip,
                                               const bpu::ExecContext& ctx) const {
  if (!scratch_.pht1_valid) {
    scratch_.pht1 = mapping_->pht_index_1level(ip, ctx);
    scratch_.pht1_valid = true;
  }
  return scratch_.pht1;
}

template <class Mapping>
std::uint32_t TagePredictorT<Mapping>::sc_row_of(std::uint64_t ip,
                                                 const bpu::ExecContext& ctx) const {
  if (!scratch_.sc_row_valid) {
    scratch_.sc_row = mapping_->perceptron_row(ip, 10, ctx);
    scratch_.sc_row_valid = true;
  }
  return scratch_.sc_row;
}

template <class Mapping>
void TagePredictorT<Mapping>::loop_keys(std::uint64_t ip,
                                        const bpu::ExecContext& ctx) const {
  if (!scratch_.loop_keys_valid) {
    // Every mapping's row is a low-bit mask of one per-address value, so
    // the 6-bit loop row is the SC row's low bits: one Rp lookup per branch.
    scratch_.loop_row = sc_row_of(ip, ctx) & 63;
    // A batching mapping already delivered the tag with find_matches' Rt batch.
    if constexpr (!bpu::RtBatch<Mapping>) {
      scratch_.loop_tag = mapping_->tage_tag(ip, 0, bpu::kTageLoopTagTable,
                                             bpu::kTageLoopTagBits, ctx);
    }
    scratch_.loop_keys_valid = true;
  }
}

template <class Mapping>
std::uint32_t TagePredictorT<Mapping>::bimodal_index(std::uint64_t ip,
                                                     const bpu::ExecContext& ctx) const {
  // The base directional predictor is remapped through R3 under STBPU,
  // exactly like the baseline PHT (paper: attacks on the base predictor
  // drive the misprediction threshold).
  return pht1_of(ip, ctx) & ((1u << cfg_.bimodal_bits) - 1);
}

template <class Mapping>
void TagePredictorT<Mapping>::find_matches(std::uint64_t ip, const bpu::ExecContext& ctx,
                                           TableMatch& provider, TableMatch& alt) {
  const HartState& hs = harts_[ctx.hart & 1];
  const unsigned n = cfg_.num_tables;
  // Bit t of `hits`: table t's entry is valid and its tag matches.
  std::uint32_t hits = 0;
  const auto hit = [&](unsigned t) -> std::uint32_t {
    const std::uint32_t e = tables_[entry_index(t, scratch_.gi[t])];
    return std::uint32_t{(e & Packed::kMatchField) == (Packed::kValid | scratch_.gtag[t])}
           << t;
  };
  if constexpr (bpu::RtBatch<Mapping>) {
    // Every table's index and tag (and the loop tag) in one batched call,
    // then every table's entry against its tag.
    for (unsigned t = 0; t < n; ++t) {
      scratch_.rt_index_key[t] = folded_key(hs, t);
      scratch_.rt_tag_key[t] = tag_key(scratch_.rt_index_key[t]);
    }
    mapping_->tage_rt_all(ip, scratch_.rt_index_key.data(), scratch_.rt_tag_key.data(), n,
                          cfg_.index_bits, cfg_.tag_bits, scratch_.gi.data(),
                          scratch_.gtag.data(),
                          cfg_.use_loop_predictor ? &scratch_.loop_tag : nullptr, ctx);
    for (unsigned t = 0; t < n; ++t) hits |= hit(t);
  } else {
    // Per-table mapping calls, longest history first, stopping at the
    // second hit: update() reads only the tables above the provider. The
    // indices/tags are cached for update()'s allocate/aging reuse.
    const std::uint32_t index_mask = (1u << cfg_.index_bits) - 1;
    for (unsigned t = n; t-- > 0;) {
      const std::uint64_t key = folded_key(hs, t);
      scratch_.gi[t] = mapping_->tage_index(ip, key, t, cfg_.index_bits, ctx) & index_mask;
      scratch_.gtag[t] = mapping_->tage_tag(ip, tag_key(key), t, cfg_.tag_bits, ctx);
      hits |= hit(t);
      if ((hits & (hits - 1)) != 0) break;  // a second bit: provider and alt found
    }
  }
  // Provider: the longest-history hit; alt: the next longest, else bimodal.
  provider = {};
  alt = {};
  if (hits != 0) {
    const unsigned p = static_cast<unsigned>(std::bit_width(hits)) - 1;
    provider = tagged_match(p, scratch_.gi[p]);
    hits &= ~(1u << p);
    if (hits != 0) {
      const unsigned a = static_cast<unsigned>(std::bit_width(hits)) - 1;
      alt = tagged_match(a, scratch_.gi[a]);
      return;
    }
  }
  const std::uint32_t bi = bimodal_index(ip, ctx);
  TableMatch& base = provider.table < 0 ? provider : alt;
  base = {.table = -1, .index = bi, .prediction = bimodal_[bi].taken(),
          .weak = !bimodal_[bi].is_saturated()};
}

template <class Mapping>
bool TagePredictorT<Mapping>::loop_predict(std::uint64_t ip, const bpu::ExecContext& ctx,
                                           bool& valid) const {
  valid = false;
  if (!cfg_.use_loop_predictor) return false;
  loop_keys(ip, ctx);
  const LoopEntry& e = loop_[scratch_.loop_row];
  if (e.valid && e.tag == scratch_.loop_tag && e.past_iters > 0 && e.conf.raw() == 3) {
    valid = true;
    return e.current_iter != e.past_iters;  // taken until the trip end
  }
  return false;
}

template <class Mapping>
void TagePredictorT<Mapping>::loop_update(std::uint64_t ip, const bpu::ExecContext& ctx,
                                          bool taken) {
  if (!cfg_.use_loop_predictor) return;
  loop_keys(ip, ctx);
  const std::uint32_t tag = scratch_.loop_tag;
  LoopEntry& e = loop_[scratch_.loop_row];
  if (!e.valid || e.tag != tag) {
    // Allocate on a not-taken outcome (potential loop exit) if the slot is
    // cold; never displace a confident entry.
    if (!taken && (!e.valid || e.conf.raw() == 0)) {
      e = LoopEntry{.tag = tag, .past_iters = 0, .current_iter = 0,
                    .conf = util::SaturatingCounter<2>{0}, .valid = true};
    }
    return;
  }
  if (taken) {
    ++e.current_iter;
    if (e.past_iters != 0 && e.current_iter > e.past_iters) {
      // Trip count changed — retrain.
      e.past_iters = 0;
      e.conf = util::SaturatingCounter<2>{0};
    }
  } else {
    if (e.past_iters == 0) {
      e.past_iters = e.current_iter;  // first full trip observed
    } else if (e.past_iters == e.current_iter) {
      e.conf.increment();
    } else {
      e.past_iters = e.current_iter;
      e.conf = util::SaturatingCounter<2>{0};
    }
    e.current_iter = 0;
  }
}

template <class Mapping>
int TagePredictorT<Mapping>::sc_sum(std::uint64_t ip, const bpu::ExecContext& ctx,
                                    bool tage_pred) const {
  const HartState& hs = harts_[ctx.hart & 1];
  const std::uint32_t row = sc_row_of(ip, ctx);
  const std::uint32_t bias_idx =
      ((pht1_of(ip, ctx) << 1) | (tage_pred ? 1 : 0)) & ((1u << 11) - 1);
  const std::uint32_t g0 = (row ^ hs.fold_index_value(0)) & ((1u << 10) - 1);
  const std::uint32_t g1 =
      (row ^ hs.fold_index_value(cfg_.num_tables > 2 ? 2 : cfg_.num_tables - 1)) &
      ((1u << 10) - 1);
  int sum = 2 * sc_bias_[bias_idx].value() + 1;
  sum += 2 * sc_gehl_[0][g0].value() + 1;
  sum += 2 * sc_gehl_[1][g1].value() + 1;
  sum += tage_pred ? detail::kScThreshold / 2 : -detail::kScThreshold / 2;  // TAGE's vote
  return sum;
}

template <class Mapping>
void TagePredictorT<Mapping>::sc_update(std::uint64_t ip, const bpu::ExecContext& ctx,
                                        bool taken, bool tage_pred) {
  const HartState& hs = harts_[ctx.hart & 1];
  const std::uint32_t row = sc_row_of(ip, ctx);
  const std::uint32_t bias_idx =
      ((pht1_of(ip, ctx) << 1) | (tage_pred ? 1 : 0)) & ((1u << 11) - 1);
  const std::uint32_t g0 = (row ^ hs.fold_index_value(0)) & ((1u << 10) - 1);
  const std::uint32_t g1 =
      (row ^ hs.fold_index_value(cfg_.num_tables > 2 ? 2 : cfg_.num_tables - 1)) &
      ((1u << 10) - 1);
  sc_bias_[bias_idx].update(taken);
  sc_gehl_[0][g0].update(taken);
  sc_gehl_[1][g1].update(taken);
}

template <class Mapping>
bpu::DirPrediction TagePredictorT<Mapping>::predict(std::uint64_t ip,
                                                    const bpu::ExecContext& ctx) {
  // New branch: invalidate the lazily cached sub-keys (ip/ψ may differ).
  scratch_.pht1_valid = false;
  scratch_.sc_row_valid = false;
  scratch_.loop_keys_valid = false;
  find_matches(ip, ctx, scratch_.provider, scratch_.alt);

  bool pred = scratch_.provider.prediction;
  // Newly allocated (weak, not yet useful) provider entries may be less
  // reliable than the alternate prediction (Seznec's use_alt_on_na).
  if (scratch_.provider.table >= 0 && scratch_.provider.weak &&
      use_alt_on_na_.taken()) {
    pred = scratch_.alt.prediction;
  }
  scratch_.tage_pred = pred;

  scratch_.loop_pred = loop_predict(ip, ctx, scratch_.loop_valid);
  if (scratch_.loop_valid) pred = scratch_.loop_pred;

  scratch_.sc_used = false;
  if (cfg_.use_statistical_corrector) {
    const int sum = sc_sum(ip, ctx, pred);
    if ((sum >= 0) != pred && std::abs(sum) >= detail::kScThreshold) {
      pred = sum >= 0;
      scratch_.sc_used = true;
    }
  }
  scratch_.final_pred = pred;
  return {.taken = pred, .from_tagged = scratch_.provider.table >= 0};
}

template <class Mapping>
void TagePredictorT<Mapping>::update(std::uint64_t ip, const bpu::ExecContext& ctx,
                                     bool taken, const bpu::DirPrediction& /*pred*/) {
  TableMatch& provider = scratch_.provider;
  TableMatch& alt = scratch_.alt;

  if (cfg_.use_statistical_corrector) sc_update(ip, ctx, taken, scratch_.tage_pred);
  loop_update(ip, ctx, taken);

  // use_alt_on_na bookkeeping for weak providers.
  if (provider.table >= 0 && provider.weak && provider.prediction != alt.prediction) {
    use_alt_on_na_.update(alt.prediction == taken);
  }

  // Train the provider.
  if (provider.table >= 0) {
    std::uint32_t& e = tables_[provider.index];
    Packed::update_ctr(e, taken);
    if (provider.prediction != alt.prediction) {
      Packed::update_useful(e, provider.prediction == taken);
    }
    // Weak providers also train the alternate so it stays a fallback.
    if (provider.weak) {
      if (alt.table >= 0) {
        Packed::update_ctr(tables_[alt.index], taken);
      } else {
        bimodal_[alt.index].update(taken);
      }
    }
  } else {
    bimodal_[provider.index].update(taken);
  }

  // Allocate a longer-history entry on a TAGE misprediction. All candidate
  // tables are above the provider, i.e. inside the range find_matches
  // computed at predict time — the folds have not advanced yet and ψ is
  // unchanged within the access, so the cached indices/tags are exactly
  // what a recompute would produce.
  if (scratch_.tage_pred != taken &&
      provider.table < static_cast<int>(cfg_.num_tables) - 1) {
    const unsigned start = static_cast<unsigned>(provider.table + 1);
    // Skip 0..1 tables at random to spread allocations (Seznec).
    unsigned first = start + (rng_.below(2) && start + 1 < cfg_.num_tables ? 1 : 0);
    bool allocated = false;
    for (unsigned t = first; t < cfg_.num_tables; ++t) {
      std::uint32_t& e = tables_[entry_index(t, scratch_.gi[t])];
      if ((e & Packed::kValid) == 0 || Packed::useful(e) == 0) {
        e = Packed::allocate(scratch_.gtag[t], taken);
        allocated = true;
        break;
      }
    }
    if (!allocated) {
      // All candidates useful — age them so future allocations succeed.
      for (unsigned t = start; t < cfg_.num_tables; ++t) {
        Packed::update_useful(tables_[entry_index(t, scratch_.gi[t])], false);
      }
    }
  }

  // Periodic graceful useful decay.
  if (++tick_ >= detail::kTickPeriod) {
    tick_ = 0;
    for (std::uint32_t& e : tables_) Packed::decay_useful(e);
  }

  // Advance this hart's history and folds.
  harts_[ctx.hart & 1].advance(taken, ip);
}

template <class Mapping>
void TagePredictorT<Mapping>::track(const bpu::BranchRecord& rec) {
  // Taken unconditional transfers enter the global history as 'taken'
  // (as in TAGE-SC-L, which conditions on path as well).
  if (!rec.taken) return;
  harts_[rec.ctx.hart & 1].advance(true, rec.ip);
}

template <class Mapping>
void TagePredictorT<Mapping>::flush() {
  std::fill(tables_.begin(), tables_.end(), Packed::kReset);
  for (auto& b : bimodal_) b = util::SaturatingCounter<2>{};
  for (auto& l : loop_) l = LoopEntry{};
  for (auto& b : sc_bias_) b = util::SignedSaturatingCounter<6>{};
  for (auto& t : sc_gehl_) {
    for (auto& c : t) c = util::SignedSaturatingCounter<6>{};
  }
  use_alt_on_na_ = util::SignedSaturatingCounter<4>{};
  for (std::uint8_t h = 0; h < 2; ++h) flush_hart(h);
}

template <class Mapping>
void TagePredictorT<Mapping>::flush_hart(std::uint8_t hart) {
  HartState& hs = harts_[hart & 1];
  std::fill(hs.history.begin(), hs.history.end(), 0);
  hs.head = 0;
  hs.path = 0;
  std::fill(hs.fold_value.begin(), hs.fold_value.end(), 0);
}

}  // namespace stbpu::tage

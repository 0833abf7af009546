// Differential-correctness suite for the hot-path campaign (ctest label
// `diff`).
//
// The optimized channel/PHY hot paths keep the original scalar math alive
// behind reference seams — channel::ReferenceFading for the fading process
// and phy::reference_effective_snr_db for the ESNR reduction — and this
// suite pins the equivalence contract between the two sides:
//
//  * Bitwise identity where the optimization only moves work around
//    (twiddle caching, SoA layout, memoization): enforced whenever vecm
//    runs its scalar loops (no AVX2, or a build without libmvec), since
//    every expression then runs on scalar libm in the reference
//    association.
//  * ULP-bounded equality where the vectorized libmvec kernels are in play
//    (vecm::available()): the per-element transcendentals are documented
//    within 4 ulp of scalar libm, every surrounding sum keeps the reference
//    association, so the response error is bounded by a per-summand ulp
//    budget times the number of unit-magnitude summands.
//
// RNG-stream consumption is load-bearing: FadingProcess and ReferenceFading
// must draw (LOS angle, LOS phase, then per-sinusoid theta, phase) per tap
// in exactly that order, or the same seed realises different channels.  The
// suite checks this two ways: identical seeds must produce matching
// responses across randomized configs (order/count drift in any draw that
// matters shows up as an O(1) mismatch), and a hand-replicated draw
// sequence must predict the single-tap response exactly.
//
// Memoization must be invisible too: every ESNR, Csi and RSSI a
// ChannelModel serves from its per-direction link samples, and every ESNR
// the controller reuses for a repeated CSI report, must equal bitwise what a
// fresh computation on the same bits returns.
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "channel/antenna.h"
#include "channel/channel_model.h"
#include "channel/fading.h"
#include "channel/mobility.h"
#include "core/wgtt_controller.h"
#include "net/backhaul.h"
#include "phy/esnr.h"
#include "reference_fading.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/units.h"
#include "util/vec_math.h"

namespace wgtt {
namespace {

using channel::FadingConfig;
using channel::FadingProcess;
using channel::ReferenceFading;
using channel::TapSpec;

// Error budget for one complex response sample.  Each tap contributes
// nlos_fraction * sin_count cosine/sine summands of magnitude <= 1, each
// within kKernelUlp ulp of the scalar value, plus an exactly-scalar LOS
// term; the twiddle accumulation multiplies by unit-magnitude factors and
// sums over taps in reference order.  A 16x safety factor keeps the bound
// robust across libm builds while staying ~10 orders of magnitude below
// any real bug (wrong phase, wrong draw order, wrong tap slice => O(1)).
double response_error_bound(const FadingProcess& p, int sinusoids_per_tap) {
  constexpr double kKernelUlp = 4.0;
  constexpr double kSafety = 16.0;
  const double summands =
      static_cast<double>(p.tap_count()) *
      (static_cast<double>(sinusoids_per_tap) + 2.0);
  return kSafety * kKernelUlp * std::numeric_limits<double>::epsilon() *
         summands;
}

FadingConfig random_config(Rng& rng) {
  FadingConfig cfg;
  const std::array<double, 3> carriers{2.412e9, 2.462e9, 5.18e9};
  cfg.carrier_hz = carriers[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  const std::array<int, 5> sinusoid_counts{1, 4, 8, 16, 32};
  cfg.sinusoids_per_tap =
      sinusoid_counts[static_cast<std::size_t>(rng.uniform_int(0, 4))];
  const int taps = static_cast<int>(rng.uniform_int(1, 6));
  cfg.taps.clear();
  double delay = 0.0;
  for (int t = 0; t < taps; ++t) {
    TapSpec spec;
    spec.delay_ns = delay;
    delay += rng.uniform(20.0, 200.0);
    spec.relative_power_db = t == 0 ? 0.0 : rng.uniform(-25.0, 0.0);
    // Mix Rayleigh taps with Rician ones (linear K up to ~10 dB).
    spec.rician_k = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 10.0);
    cfg.taps.push_back(spec);
  }
  return cfg;
}

std::vector<double> random_grid(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // the production HT20 grid
      auto span = channel::ht20_subcarrier_offsets_hz();
      return {span.begin(), span.end()};
    }
    case 1: {  // narrow grid
      std::vector<double> g;
      for (int k = -4; k <= 4; ++k) g.push_back(k * 312.5e3);
      return g;
    }
    case 2: {  // single subcarrier
      return {rng.uniform(-10e6, 10e6)};
    }
    default: {  // random irregular grid
      std::vector<double> g(static_cast<std::size_t>(rng.uniform_int(2, 24)));
      for (double& f : g) f = rng.uniform(-20e6, 20e6);
      return g;
    }
  }
}

void expect_responses_match(const FadingConfig& cfg, std::uint64_t seed,
                            Rng& scenario_rng) {
  // Both sides constructed from identical fork streams, as ChannelModel
  // does for its per-link processes.
  const FadingProcess opt(cfg, Rng(seed).fork(7));
  const ReferenceFading ref(cfg, Rng(seed).fork(7));
  ASSERT_EQ(opt.tap_count(), ref.tap_count());

  const double bound = response_error_bound(opt, cfg.sinusoids_per_tap);
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<double> grid = random_grid(scenario_rng);
    const double distance =
        rep == 0 ? 0.0 : scenario_rng.uniform(0.0, 2000.0);
    std::vector<std::complex<double>> h_opt(grid.size());
    std::vector<std::complex<double>> h_ref(grid.size());
    opt.response(distance, grid, h_opt);
    ref.response(distance, grid, h_ref);
    for (std::size_t k = 0; k < grid.size(); ++k) {
      const double dre = std::abs(h_opt[k].real() - h_ref[k].real());
      const double dim = std::abs(h_opt[k].imag() - h_ref[k].imag());
      if (vecm::available()) {
        EXPECT_LE(dre, bound) << "subcarrier " << k << " distance "
                              << distance;
        EXPECT_LE(dim, bound) << "subcarrier " << k << " distance "
                              << distance;
      } else {
        // Scalar fallback: every expression is libm in reference
        // association — the seam owes bitwise identity.
        EXPECT_EQ(h_opt[k].real(), h_ref[k].real())
            << "subcarrier " << k << " distance " << distance;
        EXPECT_EQ(h_opt[k].imag(), h_ref[k].imag())
            << "subcarrier " << k << " distance " << distance;
      }
    }
    // Wideband gain goes through the same response; its reduction is
    // shared code on both sides.
    const double g_opt = opt.wideband_gain(distance, grid);
    const double g_ref = ref.wideband_gain(distance, grid);
    EXPECT_LE(std::abs(g_opt - g_ref),
              vecm::available() ? 8.0 * bound : 0.0);
  }
}

// ~200 randomized configs, sharded so a failure names its shard and the
// suite parallelises under ctest -j.
class FadingDiffShard : public ::testing::TestWithParam<int> {};

TEST_P(FadingDiffShard, RandomizedConfigsMatchReference) {
  const int shard = GetParam();
  Rng rng(0xD1FFu * 1000003u + static_cast<std::uint64_t>(shard));
  for (int i = 0; i < 20; ++i) {
    const FadingConfig cfg = random_config(rng);
    const std::uint64_t seed = rng.next_u64();
    SCOPED_TRACE(::testing::Message() << "shard " << shard << " config " << i);
    expect_responses_match(cfg, seed, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(HotPath, FadingDiffShard, ::testing::Range(0, 10));

// The default (production) config on the production grid, many distances —
// the exact code path the simulation drives.
TEST(FadingDiff, DefaultConfigProductionGrid) {
  const FadingConfig cfg;  // street-canyon defaults
  const FadingProcess opt(cfg, Rng(42).fork(3));
  const ReferenceFading ref(cfg, Rng(42).fork(3));
  const auto grid = channel::ht20_subcarrier_offsets_hz();
  const double bound = response_error_bound(opt, cfg.sinusoids_per_tap);
  std::array<std::complex<double>, channel::kNumSubcarriers> h_opt;
  std::array<std::complex<double>, channel::kNumSubcarriers> h_ref;
  for (double d = 0.0; d < 120.0; d += 0.37) {
    opt.response(d, grid, h_opt);
    ref.response(d, grid, h_ref);
    for (std::size_t k = 0; k < h_opt.size(); ++k) {
      ASSERT_LE(std::abs(h_opt[k] - h_ref[k]), bound) << "d=" << d;
    }
  }
}

// Hand-replicated RNG draw sequence: a single Rayleigh tap with one
// sinusoid realises H(f=0, d=0) = (cos(phase), sin(phase)) where `phase`
// is the 4th uniform draw (after LOS angle, LOS phase, theta).  Both
// classes must consume the stream in exactly that order.
TEST(FadingDiff, RngDrawOrderPinnedBySingleTapPrediction) {
  FadingConfig cfg;
  cfg.sinusoids_per_tap = 1;
  cfg.taps = {{0.0, 0.0, 0.0}};  // one Rayleigh tap => amplitude 1, nlos 1
  const Rng seed_rng = Rng(1234).fork(9);

  Rng replica = seed_rng;
  (void)replica.uniform(0.0, kPi);        // LOS angle (unused: K = 0)
  (void)replica.uniform(0.0, 2.0 * kPi);  // LOS phase (unused)
  (void)replica.uniform(0.0, 2.0 * kPi);  // sinusoid theta
  const double phase = replica.uniform(0.0, 2.0 * kPi);
  const std::complex<double> expected{std::cos(phase), std::sin(phase)};

  const std::array<double, 1> grid{0.0};
  std::array<std::complex<double>, 1> h{};
  const FadingProcess opt(cfg, seed_rng);
  opt.response(0.0, grid, h);
  EXPECT_LE(std::abs(h[0] - expected), 64.0 * 4.0 *
                                           std::numeric_limits<double>::epsilon());

  const ReferenceFading ref(cfg, seed_rng);
  h[0] = {0.0, 0.0};
  ref.response(0.0, grid, h);
  EXPECT_EQ(h[0].real(), expected.real());
  EXPECT_EQ(h[0].imag(), expected.imag());
}

// Same seed must give the same realisation through both classes when the
// grid changes on every call, so each call rebuilds the one-grid twiddle
// cache.
TEST(FadingDiff, TwiddleCacheOverflowFallsBackToSameMath) {
  FadingConfig cfg;
  cfg.sinusoids_per_tap = 4;
  const FadingProcess opt(cfg, Rng(77).fork(1));
  const ReferenceFading ref(cfg, Rng(77).fork(1));
  const double bound = response_error_bound(opt, cfg.sinusoids_per_tap);
  Rng grid_rng(5150);
  for (int g = 0; g < 12; ++g) {
    std::vector<double> grid(4);
    for (double& f : grid) f = grid_rng.uniform(-15e6, 15e6);
    std::vector<std::complex<double>> h_opt(grid.size());
    std::vector<std::complex<double>> h_ref(grid.size());
    opt.response(3.25, grid, h_opt);
    ref.response(3.25, grid, h_ref);
    for (std::size_t k = 0; k < grid.size(); ++k) {
      ASSERT_LE(std::abs(h_opt[k] - h_ref[k]), bound) << "grid " << g;
    }
  }
}

// ---------------------------------------------------------------------------
// ESNR seam: effective_snr_db (vectorized mean-BER when available) against
// reference_effective_snr_db (the retained scalar reduction).
// ---------------------------------------------------------------------------

// The vectorized mean-BER differs from the scalar one by per-element ulps
// of exp10-vs-pow and vector-vs-scalar erfc; through the monotone BER
// table inverse and linear_to_db the output perturbation stays many
// orders below 1e-9 dB (the table interpolation divides by a cell height
// proportional to the BER itself, so relative error passes through
// roughly 1:1).  Any reassociation or dropped subcarrier shows up at
// >= 1e-4 dB.
constexpr double kEsnrTolDb = 1e-9;

TEST(EsnrDiff, RandomSpansMatchReference) {
  Rng rng(0xE5AAu);
  const std::array<phy::Modulation, 4> mods{
      phy::Modulation::kBpsk, phy::Modulation::kQpsk,
      phy::Modulation::kQam16, phy::Modulation::kQam64};
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<double> snr_db(n);
    for (double& s : snr_db) s = rng.uniform(-40.0, 60.0);
    const phy::Modulation mod =
        mods[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const double opt = phy::effective_snr_db(snr_db, mod);
    const double ref = phy::reference_effective_snr_db(snr_db, mod);
    if (vecm::available()) {
      EXPECT_NEAR(opt, ref, kEsnrTolDb) << "n=" << n << " case " << i;
    } else {
      EXPECT_EQ(opt, ref) << "n=" << n << " case " << i;
    }
  }
}

TEST(EsnrDiff, ProductionWidthCsiMatchesReference) {
  Rng rng(0xC51u);
  for (int i = 0; i < 50; ++i) {
    phy::Csi csi;
    for (double& s : csi.subcarrier_snr_db) s = rng.uniform(-10.0, 45.0);
    const double opt = phy::effective_snr_db(csi, phy::Modulation::kQam16);
    const double ref = phy::reference_effective_snr_db(
        std::span<const double>(csi.subcarrier_snr_db.data(),
                                phy::kNumSubcarriers),
        phy::Modulation::kQam16);
    if (vecm::available()) {
      EXPECT_NEAR(opt, ref, kEsnrTolDb) << "case " << i;
    } else {
      EXPECT_EQ(opt, ref) << "case " << i;
    }
  }
}

// Spans wider than the vector scratch (64) must dispatch to the reference
// implementation — bitwise, vectors or not.
TEST(EsnrDiff, OversizedSpanDispatchesToReferenceBitwise) {
  Rng rng(0xB16u);
  std::vector<double> snr_db(200);
  for (double& s : snr_db) s = rng.uniform(-20.0, 50.0);
  EXPECT_EQ(phy::effective_snr_db(snr_db, phy::Modulation::kQam64),
            phy::reference_effective_snr_db(snr_db, phy::Modulation::kQam64));
}

// Degenerate spans: extreme SNRs hit the BER-table clamps identically on
// both sides.
TEST(EsnrDiff, ExtremeSnrsClampIdentically) {
  const std::array<double, 4> extremes{-200.0, -40.0, 80.0, 300.0};
  for (double v : extremes) {
    std::vector<double> snr_db(8, v);
    const double opt = phy::effective_snr_db(snr_db, phy::Modulation::kQpsk);
    const double ref =
        phy::reference_effective_snr_db(snr_db, phy::Modulation::kQpsk);
    EXPECT_NEAR(opt, ref, kEsnrTolDb) << "snr " << v;
  }
}

// ---------------------------------------------------------------------------
// Memoized link samples and report ESNRs
// ---------------------------------------------------------------------------

using channel::ChannelModel;
using Direction = ChannelModel::Direction;

constexpr std::array<phy::Modulation, 4> kModulations{
    phy::Modulation::kBpsk, phy::Modulation::kQpsk, phy::Modulation::kQam16,
    phy::Modulation::kQam64};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A client that slides along the road without its travelled distance
/// advancing: equal distances at different instants, but a different
/// large-scale gain, so only the second half of a sample's key tells the
/// instants apart.
class SlidingMobility final : public channel::MobilityModel {
 public:
  channel::Vec3 position(Time t) const override {
    return {2.0 + 4.0 * t.to_sec(), 0.0, 1.5};
  }
  channel::Vec3 velocity(Time) const override { return {4.0, 0.0, 0.0}; }
  double distance_travelled(Time) const override { return 0.0; }
};

/// Three roadside APs, two parked clients, two moving ones and a sliding
/// one, from `seed`.  Every model built from one seed realises the same
/// channel.
std::unique_ptr<ChannelModel> memo_test_model(std::uint64_t seed) {
  auto model = std::make_unique<ChannelModel>(
      channel::RadioConfig{}, channel::PathLossConfig{},
      channel::ShadowingConfig{}, FadingConfig{}, Rng(seed));
  for (net::NodeId ap = 1; ap <= 3; ++ap) {
    channel::ApSite site;
    site.id = ap;
    site.position = {7.5 * (ap - 1), 15.0, 8.0};
    site.boresight = channel::Vec3{0.0, -15.0, -6.5}.normalized();
    site.antenna = std::make_shared<channel::ParabolicAntenna>();
    model->add_ap(site);
  }
  const net::NodeId c = net::kClientBase;
  model->add_client(c, std::make_shared<channel::StaticMobility>(
                           channel::Vec3{3.0, 0.0, 1.5}));
  model->add_client(c + 1, std::make_shared<channel::StaticMobility>(
                               channel::Vec3{12.0, 0.0, 1.5}));
  model->add_client(c + 2, std::make_shared<channel::LinearMobility>(
                               channel::Vec3{-5.0, 0.0, 1.5},
                               channel::Vec3{11.0, 0.0, 0.0}));
  model->add_client(c + 3, std::make_shared<channel::LinearMobility>(
                               channel::Vec3{20.0, 3.0, 1.5},
                               channel::Vec3{-6.0, 0.0, 0.0}));
  model->add_client(c + 4, std::make_shared<SlidingMobility>());
  return model;
}

TEST(ChannelMemoDiff, RandomQueriesMatchAFreshModelBitwise) {
  constexpr std::uint64_t kSeed = 0x5A3Du;
  const auto memo = memo_test_model(kSeed);
  Rng rng(0x3E30u);
  std::vector<Time> instants{Time::zero()};
  Time t = Time::zero();
  net::NodeId ap = 1;
  net::NodeId client = net::kClientBase;
  for (int i = 0; i < 400; ++i) {
    // Half the queries sample the last link again at the same instant (the
    // data/BA pattern, in either direction).  The rest pick a link afresh:
    // at the same instant, at a later one, or back at an earlier one (the
    // metrics sampler and the MAC do not query in time order).
    if (rng.uniform(0.0, 1.0) < 0.5) {
      const double when = rng.uniform(0.0, 1.0);
      if (when < 0.4) {
        t = instants.back() +
            Time::us(static_cast<std::int64_t>(rng.uniform_int(1, 3000)));
        instants.push_back(t);
      } else if (when < 0.6) {
        t = instants[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(instants.size()) - 1))];
      }
      ap = static_cast<net::NodeId>(rng.uniform_int(1, 3));
      client =
          net::kClientBase + static_cast<net::NodeId>(rng.uniform_int(0, 4));
    }
    const Direction dir =
        rng.uniform_int(0, 1) == 0 ? Direction::kDownlink : Direction::kUplink;
    const phy::Modulation mod =
        kModulations[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const bool down = dir == Direction::kDownlink;

    // The reference: a model that has seen no other query.
    const auto fresh = memo_test_model(kSeed);
    const phy::Csi want = down ? fresh->downlink_csi(ap, client, t)
                               : fresh->uplink_csi(ap, client, t);
    const double want_esnr = phy::effective_snr_db(want, mod);
    SCOPED_TRACE(::testing::Message()
                 << "query " << i << ": ap " << ap << ", client " << client
                 << (down ? ", downlink" : ", uplink") << ", t_ns "
                 << t.to_ns());

    switch (rng.uniform_int(0, 3)) {
      case 0: {  // ESNR alone: the sample's RSSI stays unsummed
        EXPECT_EQ(bits(memo->esnr_db(dir, ap, client, t, mod)),
                  bits(want_esnr));
        break;
      }
      case 1: {  // ESNR with its Csi, as the MAC asks
        phy::Csi got;
        EXPECT_EQ(bits(memo->esnr_db(dir, ap, client, t, mod, &got)),
                  bits(want_esnr));
        EXPECT_EQ(std::memcmp(got.subcarrier_snr_db.data(),
                              want.subcarrier_snr_db.data(),
                              sizeof got.subcarrier_snr_db),
                  0);
        EXPECT_EQ(bits(got.rssi_dbm), bits(want.rssi_dbm));
        EXPECT_EQ(got.measured_at, t);
        break;
      }
      case 2: {  // the Csi and RSSI entry points
        const phy::Csi got = down ? memo->downlink_csi(ap, client, t)
                                  : memo->uplink_csi(ap, client, t);
        EXPECT_EQ(std::memcmp(got.subcarrier_snr_db.data(),
                              want.subcarrier_snr_db.data(),
                              sizeof got.subcarrier_snr_db),
                  0);
        EXPECT_EQ(bits(got.rssi_dbm), bits(want.rssi_dbm));
        EXPECT_EQ(got.measured_at, t);
        const double rssi = down ? memo->downlink_rssi_dbm(ap, client, t)
                                 : memo->uplink_rssi_dbm(ap, client, t);
        EXPECT_EQ(bits(rssi), bits(want.rssi_dbm));
        break;
      }
      default: {  // the downlink selection metric
        EXPECT_EQ(bits(memo->downlink_selection_esnr_db(ap, client, t)),
                  bits(phy::selection_esnr_db(
                      fresh->downlink_csi(ap, client, t))));
        break;
      }
    }
  }
}

TEST(ChannelMemoDiff, LateRssiSumUsesTheSamplesOwnFading) {
  // A downlink sample filled without its RSSI; then the uplink moves the
  // link's fading memo to another distance; then the downlink sample is
  // read whole.  Its RSSI must be summed over its own distance's fades.
  constexpr std::uint64_t kSeed = 0x7A11u;
  const auto memo = memo_test_model(kSeed);
  const net::NodeId moving = net::kClientBase + 2;
  const Time t1 = Time::ms(300);
  memo->downlink_selection_esnr_db(2, moving, t1);
  memo->uplink_csi(2, moving, Time::ms(700));
  const phy::Csi got = memo->downlink_csi(2, moving, t1);
  const phy::Csi want = memo_test_model(kSeed)->downlink_csi(2, moving, t1);
  EXPECT_EQ(bits(got.rssi_dbm), bits(want.rssi_dbm));
  EXPECT_EQ(bits(memo->downlink_rssi_dbm(2, moving, t1)),
            bits(want.rssi_dbm));
}

TEST(ChannelMemoDiff, SelectionEsnrEqualsSelectionOfDownlinkCsi) {
  // Either call may fill the shared downlink sample first.
  const auto model = memo_test_model(0xD5E1u);
  for (int step = 0; step < 40; ++step) {
    const Time t = Time::ms(37 * step);
    for (net::NodeId ap = 1; ap <= 3; ++ap) {
      for (net::NodeId c = net::kClientBase; c < net::kClientBase + 5; ++c) {
        double selection = 0.0;
        phy::Csi csi;
        if (step % 2 == 0) {
          selection = model->downlink_selection_esnr_db(ap, c, t);
          csi = model->downlink_csi(ap, c, t);
        } else {
          csi = model->downlink_csi(ap, c, t);
          selection = model->downlink_selection_esnr_db(ap, c, t);
        }
        EXPECT_EQ(bits(selection), bits(phy::selection_esnr_db(csi)))
            << "ap " << ap << ", client " << c << ", step " << step;
      }
    }
  }
}

TEST(ControllerMemoDiff, RepeatedReportsReadTheirOwnEsnr) {
  sim::Scheduler sched;
  net::Backhaul backhaul(sched, net::BackhaulConfig{}, Rng(1));
  core::ControllerConfig cfg;
  cfg.use_latest_reading = true;
  cfg.min_readings = 1;
  core::WgttController controller(sched, backhaul, {1, 2}, cfg);

  Rng rng(0xAB0Au);
  phy::Csi a;
  phy::Csi b;
  for (double& s : a.subcarrier_snr_db) s = rng.uniform(-5.0, 35.0);
  for (double& s : b.subcarrier_snr_db) s = rng.uniform(-5.0, 35.0);
  const net::NodeId client = net::kClientBase;
  for (const phy::Csi* report : {&a, &b, &a, &a}) {
    controller.inject_csi(1, client, *report);
    const std::optional<double> latest = controller.median_esnr(client, 1);
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(bits(*latest), bits(phy::selection_esnr_db(*report)));
  }
  EXPECT_NE(bits(phy::selection_esnr_db(a)), bits(phy::selection_esnr_db(b)));
}

// ---------------------------------------------------------------------------
// vecm kernels against their scalar reference expressions, elementwise.
// ---------------------------------------------------------------------------

TEST(VecMathDiff, KernelsWithinUlpBudgetOfScalar) {
  constexpr double kUlp = 4.0;
  Rng rng(0x7EC4u);
  std::vector<double> x(37);  // deliberately not a multiple of 4 (tail path)
  for (double& v : x) v = rng.uniform(-30.0, 30.0);
  std::vector<double> out(x.size()), c(x.size()), s(x.size());

  vecm::db_to_linear(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ref = db_to_linear(x[i]);
    EXPECT_LE(std::abs(out[i] - ref),
              kUlp * std::numeric_limits<double>::epsilon() * std::abs(ref))
        << "db_to_linear(" << x[i] << ")";
  }

  for (double& v : x) v = std::abs(v) + 1e-6;
  vecm::linear_to_db(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ref = linear_to_db(x[i]);
    EXPECT_LE(std::abs(out[i] - ref),
              kUlp * std::numeric_limits<double>::epsilon() *
                  std::max(1.0, std::abs(ref)))
        << "linear_to_db(" << x[i] << ")";
  }

  for (double& v : x) v = rng.uniform(-600.0, 600.0);
  vecm::sin_cos(x.data(), c.data(), s.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(c[i] - std::cos(x[i])),
              kUlp * std::numeric_limits<double>::epsilon());
    EXPECT_LE(std::abs(s[i] - std::sin(x[i])),
              kUlp * std::numeric_limits<double>::epsilon());
  }

  for (double& v : x) v = rng.uniform(0.0, 8.0);
  vecm::erfc(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ref = std::erfc(x[i]);
    EXPECT_LE(std::abs(out[i] - ref),
              kUlp * std::numeric_limits<double>::epsilon() *
                  std::max(ref, std::numeric_limits<double>::min()))
        << "erfc(" << x[i] << ")";
  }
}

TEST(VecMathDiff, ZeroLengthSweepsAreNoOps) {
  double sentinel = 123.0;
  vecm::db_to_linear(nullptr, &sentinel, 0);
  vecm::linear_to_db(nullptr, &sentinel, 0);
  vecm::erfc(nullptr, &sentinel, 0);
  vecm::sin_cos(nullptr, &sentinel, &sentinel, 0);
  EXPECT_EQ(sentinel, 123.0);
}

}  // namespace
}  // namespace wgtt

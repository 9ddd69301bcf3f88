#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "analysis/mobility_metrics.h"
#include "obs/runtime.h"
#include "sim/dataset_audit.h"
#include "sim/dataset_codec.h"
#include "mobility/place.h"
#include "mobility/relocation.h"
#include "mobility/trajectory.h"
#include "sim/interrupt.h"
#include "sim/kpi_day_closer.h"
#include "sim/phases.h"
#include "sim/pool.h"
#include "sim/run_state.h"
#include "sim/supervisor.h"
#include "traffic/demand.h"
#include "traffic/voice.h"

namespace cellscope::sim {

namespace {

// Serving cells of one user place, resolved once. Fields are ordered to
// pack into 48 bytes.
struct PlaceCells {
  SiteId site;
  CountyId county;
  PostcodeDistrictId district;
  CellId lte_cell;
  LatLon site_location;
  // Each RAT's serving cell as a KPI-day load ordinal
  // (KpiDayCloser::ordinal), kNotCollected where the day does not collect
  // it.
  std::array<std::uint32_t, radio::kRatCount> ordinal_by_rat;
  bool site_has_legacy = false;
  // Whether the 3G / 2G serving cell is of that RAT rather than the 4G
  // fallback where the layer is not deployed.
  bool has_3g = false;
  bool has_2g = false;
};

PlaceCells resolve_place(const radio::RadioTopology& topology,
                         const KpiDayCloser& kpi_closer,
                         const mobility::Place& place) {
  // serving_cell() picks nearest site + bearing sector; resolve per RAT
  // (legacy falls back to 4G where undeployed).
  const auto serving = [&](radio::Rat rat) {
    return topology.serving_cell(place.district, place.location, rat);
  };
  const CellId cell_2g = serving(radio::Rat::k2G);
  const CellId cell_3g = serving(radio::Rat::k3G);
  PlaceCells pc;
  pc.lte_cell = serving(radio::Rat::k4G);
  pc.ordinal_by_rat = {kpi_closer.ordinal(cell_2g),
                       kpi_closer.ordinal(cell_3g),
                       kpi_closer.ordinal(pc.lte_cell)};
  pc.has_3g = topology.cell(cell_3g).rat == radio::Rat::k3G;
  pc.has_2g = topology.cell(cell_2g).rat == radio::Rat::k2G;
  const auto& site = topology.site(topology.cell(pc.lte_cell).site);
  pc.site = site.id;
  pc.site_location = site.location;
  pc.county = site.county;
  pc.district = site.district;
  pc.site_has_legacy = site.has_2g || site.has_3g;
  return pc;
}
static_assert(sizeof(PlaceCells) == 48);

}  // namespace

Simulator::Simulator(ScenarioConfig config) : config_(std::move(config)) {}

Dataset run_scenario(const ScenarioConfig& config) {
  return Simulator{config}.run();
}

Dataset run_scenario(const ScenarioConfig& config, DatasetSink* sink) {
  return Simulator{config}.run(sink);
}

void build_substrate(const ScenarioConfig& config, Dataset& ds) {
  obs::Tracer& tracer = obs::tracer();

  auto geo_config = config.geography;
  geo_config.seed = config.seed;
  {
    const auto span = tracer.span("setup.geography", "setup");
    ds.geography = std::make_unique<geo::UkGeography>(
        geo::UkGeography::build(geo_config));
  }

  {
    const auto span = tracer.span("setup.population", "setup");
    ds.catalog = std::make_unique<population::DeviceCatalog>(
        population::DeviceCatalog::build(config.seed));

    auto pop_config = config.population;
    pop_config.num_users = config.num_users;
    pop_config.seed = config.seed;
    population::PopulationGenerator generator{*ds.geography, *ds.catalog};
    ds.population = std::make_unique<population::Population>(
        generator.generate(pop_config));
  }
  ds.eligible_users = ds.population->eligible_count();

  auto topo_config = config.topology;
  topo_config.expected_subscribers = config.num_users;
  topo_config.seed = config.seed;
  {
    const auto span = tracer.span("setup.topology", "setup");
    ds.topology = std::make_unique<radio::RadioTopology>(
        radio::RadioTopology::build(*ds.geography, topo_config));
  }

  ds.policy = std::make_unique<mobility::PolicyTimeline>(config.policy);

  // The window shape the simulator and both decoders fill; SeriesId order.
  const SimDay first = config.first_day();
  const SimDay last = config.last_day();
  const std::size_t bins =
      config.collect_binned_mobility ? kFourHourBinsPerDay : 0;
  const std::array<std::size_t, kGroupedSeries.size()> groups = {
      1, 1, geo::kRegionCount, geo::kRegionCount, geo::kOacClusterCount,
      geo::kOacClusterCount, bins, bins};
  for (std::size_t id = 0; id < groups.size(); ++id)
    ds.*kGroupedSeries[id] =
        analysis::GroupedDailySeries{groups[id], first, last};
  for (const auto series : kDailySeries) ds.*series = DailySeries{first, last};
  for (const auto dist : kDistributions)
    ds.*dist = analysis::DistributionSeries{first, last};
}

Dataset Simulator::run(DatasetSink* sink, CheckpointSink* checkpoint) {
  config_.validate();

  // Observability plumbing. Everything below is behind `obs_on`, a bool
  // cached once per run: a disabled runtime costs one branch per
  // instrumentation point and records nothing. Tracing/metrics only read
  // clocks and counters — never RNG streams or model state — so a traced
  // run's Dataset is bit-identical to an untraced one.
  const bool obs_on = obs::enabled();
  obs::Tracer& tracer = obs::tracer();
  obs::MetricsRegistry& registry = obs::metrics();
  obs::MetricId m_user_days, m_observations, m_mobility, m_cells;
  obs::MetricId m_pool_chunks, m_pool_steals, m_kpi_rows;
  obs::Histogram* day_wall_hist = nullptr;
  obs::Histogram* pool_imbalance_hist = nullptr;
  obs::Histogram* checkpoint_hist = nullptr;
  if (obs_on) {
    m_user_days = registry.counter("sim.user_days");
    m_observations = registry.counter("sim.observations");
    m_mobility = registry.counter("sim.mobility_results");
    m_cells = registry.counter("scheduler.cells_scheduled");
    m_pool_chunks = registry.counter("pool.chunks");
    m_pool_steals = registry.counter("pool.chunks_stolen");
    m_kpi_rows = registry.counter("sim.kpi_rows");
    day_wall_hist = &registry.histogram("sim.day_wall_ms");
    pool_imbalance_hist = &registry.histogram("pool.chunk_imbalance_pct");
    checkpoint_hist = &registry.histogram("sim.checkpoint_ms");
  }

  Dataset ds;
  ds.config = config_;
  Rng root{config_.seed};

  // ---------------------------------------------------------------- setup
  build_substrate(config_, ds);
  const geo::UkGeography& geography = *ds.geography;
  const auto& subscribers = ds.population->subscribers;
  const radio::RadioTopology& topology = *ds.topology;
  const mobility::PolicyTimeline& policy = *ds.policy;

  mobility::TrajectoryGenerator trajectories{geography, policy,
                                             config_.behavior};
  mobility::RelocationModel relocation{geography, policy, config_.relocation};
  traffic::DemandModel demand_model{policy, config_.demand};
  traffic::VoiceModel voice_model{policy, config_.voice};
  traffic::SignalingGenerator signaling_gen{config_.signaling};

  const SimDay first_day = config_.first_day();
  const SimDay last_day = config_.last_day();
  const SimDay kpi_first_day =
      config_.collect_kpis ? config_.kpi_first_day() : last_day + 1;

  // Measurement-plane fault plan: one deterministic realization of the
  // scenario's FaultConfig. With all-zero knobs the plan is disabled and
  // every fault branch below is skipped, keeping the clean run untouched.
  const FaultPlan fault_plan =
      FaultPlan::build(config_.faults, config_.seed, first_day, last_day,
                       topology.cells().size());
  const bool faults_on = fault_plan.enabled();

  // In-process conservation audit: per-day KPI checks as days close (the
  // KpiDayCloser), the whole-run laws after the final merge. Read-only over
  // finished structures — it cannot perturb the run (test_determinism
  // compares an audited run to an unaudited one bit for bit).
  const bool audit_on = config_.audit;

  // One pool per run: worker threads are created here and parked between
  // phases — the set-up, every day's users and the day closes share them.
  WorkerPool pool{config_.worker_threads};

  // Home detection runs over the warm-up and closes when week 9 opens, so
  // that the Fig 7 matrix can track detected residents from the baseline
  // week onward (Feb 3-23 gives 21 candidate nights >= the 14 required).
  const SimDay analysis_start = week_start_day(9);
  analysis::HomeDetectionParams home_params;
  home_params.first_day = first_day;
  home_params.end_day = std::min<SimDay>(analysis_start, last_day + 1);

  // Per-user structures. The run-local evolving state lives in RunState,
  // which the checkpoint records carry; the rest regrows from the config.
  const std::size_t n_users = subscribers.size();
  std::vector<mobility::UserPlaces> generated_places;
  {
    const auto span = tracer.span("setup.places", "setup");
    generated_places = build_user_places(pool, geography, subscribers, root);
  }
  RunState run_state{std::move(generated_places), home_params};
  std::vector<mobility::UserState>& user_states = run_state.user_states;
  std::vector<mobility::UserPlaces>& user_places = run_state.user_places;

  // KPI plumbing: the per-user reduction fills the closer's day load,
  // indexed by the closer's collected-cell ordinals.
  KpiDayCloser kpi_closer{config_, topology, fault_plan, pool};

  std::vector<std::vector<PlaceCells>> place_cells(n_users);
  const auto cells_of = [&](std::size_t user,
                            std::uint8_t place_index) -> const PlaceCells& {
    auto& resolved = place_cells[user];
    while (resolved.size() <= place_index) {
      resolved.push_back(resolve_place(
          topology, kpi_closer, user_places[user].places[resolved.size()]));
    }
    return resolved[place_index];
  };

  std::vector<std::uint8_t> tracked_london(n_users, 0);

  const auto inner_london = geography.county_by_name("Inner London");

  // ---------------------------------------------------- parallel engine
  // The per-user day simulation is embarrassingly parallel: every mutable
  // per-user structure is disjoint and all randomness comes from per-user
  // forks. The pool cuts the user index space into fixed-size chunks
  // (ScenarioConfig::user_chunk); each chunk accumulates into one of
  // window() reusable buffers, and this thread folds completed buffers
  // into the Dataset in ascending chunk order. Every float accumulation
  // therefore happens in user-index order over a grid fixed by the config,
  // so the Dataset is bit-identical for any worker_threads (src/sim/pool.h
  // has the full contract; test_determinism enforces it).
  struct MobilityResult {
    std::uint32_t user = 0;
    double entropy = 0.0;
    double gyration = 0.0;
    std::array<float, kFourHourBinsPerDay> bin_entropy{};
    std::array<float, kFourHourBinsPerDay> bin_gyration{};
    std::uint8_t bin_mask = 0;
  };
  // One buffer per reorder-window slot: everything whose apply order can
  // move float bits, or that feeds an order-sensitive consumer (the home
  // detector, the London matrix), is staged here and drained by reduce.
  struct ChunkBuf {
    // The chunk's KPI-day load: the collected cell-hours it touched, its
    // off-net minutes and its call attempts per hour (for the voice ledger:
    // integer counts, so the chunk-order merge is exact).
    ChunkLoad load;
    double roamers = 0.0;
    double lte_hours = 0.0;
    double legacy_hours = 0.0;
    std::vector<MobilityResult> mobility;
    std::vector<telemetry::UserDayObservation> detector_obs;
    std::vector<telemetry::UserDayObservation> matrix_obs;
    // Per-day observation-feed accounting (faulted runs only).
    std::uint64_t obs_expected = 0;
    std::uint64_t obs_observed = 0;
    // The chunk's signaling, counted past the day's outage mask; reduce
    // adds it to the Dataset's probe and the day's feed totals.
    telemetry::SignalingDayCounter signaling;
    // Pre-work snapshot of the chunk's mutable per-user inputs, taken at
    // the top of work(): user states plus each user's (place count,
    // refuge index). The supervisor's reset restores them so a retried
    // chunk replays the exact same decisions — including re-drawing a
    // refuge a failed attempt already appended (sim/supervisor.h).
    std::vector<mobility::UserState> state_snapshot;
    std::vector<std::pair<std::uint8_t, std::uint8_t>> places_snapshot;
  };
  // Per-worker state: metric deltas whose merge is integer-exact and
  // therefore order-free, plus reusable scratch. Nothing here can move a
  // float bit, and nothing here is chunk results — a retried chunk must
  // not be able to leave partial state outside its own buffer.
  struct WorkerCtx {
    // Private metric deltas, folded into the registry at day end.
    obs::MetricsShard metrics;
    mobility::DayPlan plan;                     // scratch
    telemetry::UserDayObservation observation;  // scratch
    std::vector<traffic::CellStay> cell_stays;  // scratch
  };

  const auto chunk_size = static_cast<std::size_t>(config_.user_chunk);
  const std::size_t n_chunks = (n_users + chunk_size - 1) / chunk_size;
  std::vector<ChunkBuf> chunk_bufs(pool.window());
  std::vector<WorkerCtx> workers(static_cast<std::size_t>(pool.workers()));
  // Supervised execution: throwing chunks are reset and retried in place,
  // exhausted chunks fail the day (after the previous day's checkpoint is
  // safely on disk), and a watchdog counts stalls. docs/RECOVERY.md.
  Supervisor supervisor{pool};

  // -------------------------------------------------- checkpoint/resume
  // One record per completed day (sim/run_state.h): the run state, then
  // that day's rows of the Dataset. Resume replays the saved log in order;
  // a log of another run-state version starts a fresh run.
  SimDay start_day = first_day;
  if (checkpoint != nullptr && !checkpoint->resume_payload().empty() &&
      checkpoint->resume_payload().front() == kRunStateVersion) {
    const auto resume_span = tracer.span("setup.resume", "setup");
    if (replay_log(checkpoint->resume_payload(), first_day, run_state, ds) !=
        checkpoint->resume_day())
      throw BlobError{"checkpoint log: last record is not the resume day"};

    // Derived state the log does not carry: the interconnect's capacity
    // (a pure function of the calibration scalar) and the London tracking
    // flags (a pure function of the restored, bounds-checked homes).
    kpi_closer.restore(run_state);
    if (run_state.homes_finalized && inner_london) {
      for (const auto& home : ds.homes)
        if (home.home_county == *inner_london)
          tracked_london[home.user.value()] = 1;
    }

    start_day = checkpoint->resume_day() + 1;
    ds.recovery.resumed = true;
    ds.recovery.resumed_from_day = checkpoint->resume_day();
    ds.recovery.checkpoint_kpi_rows = ds.kpis.row_count();
    ds.recovery.checkpoint_voice_attempts = ds.voice_calls.total_attempts();
    ds.recovery.checkpoint_signaling_days = ds.signaling.days().size();

    // Walk the restored KPI days in their original day batches. The audit
    // report is not checkpointed, so an audited run checks each day here
    // as the closer did when it closed. The sink is re-sent each day, so a
    // streaming store sees the exact row sequence of the uninterrupted run
    // and its bytes come out identical; the sink owns them from here on.
    if (sink != nullptr || audit_on) {
      const auto& records = ds.kpis.records();
      std::size_t lo = 0;
      while (lo < records.size()) {
        std::size_t hi = lo;
        while (hi < records.size() && records[hi].day == records[lo].day) ++hi;
        const std::span<const telemetry::CellDayRecord> rows{
            records.data() + lo, hi - lo};
        if (audit_on)
          kpi_closer.audit_day(records[lo].day, rows, ds.audit_report);
        if (sink != nullptr) sink->on_kpi_day(records[lo].day, rows);
        lo = hi;
      }
      if (sink != nullptr) ds.kpis.release_rows();
    }
  }
  // Homes and validation go into the record of the day they finalize only.
  bool homes_in_record = false;

  // ------------------------------------------------------------- main loop
  for (SimDay day = start_day; day <= last_day; ++day) {
    auto day_span = tracer.span("day", "sim", day);
    const auto day_clock_start = std::chrono::steady_clock::now();

    // Finalize homes the moment the analysis window opens; the detector's
    // accumulators are released with it.
    if (!run_state.homes_finalized && day >= analysis_start) {
      homes_in_record = true;
      ds.homes = run_state.finalize_homes();
#if defined(__GLIBC__)
      // The detector's accumulators were the heap's largest run of small
      // blocks. Pages freed in the middle of a heap stay resident until the
      // allocator hands them back, so hand them back now.
      malloc_trim(0);
#endif
      ds.home_validation = analysis::validate_homes(
          geography, ds.homes, static_cast<std::int64_t>(ds.eligible_users));
      if (inner_london) {
        ds.london_matrix = std::make_unique<analysis::MobilityMatrix>(
            geography, *inner_london, analysis_start, last_day);
        for (const auto& home : ds.homes) {
          if (home.home_county == *inner_london) {
            tracked_london[home.user.value()] = 1;
            ++ds.london_residents_tracked;
          }
        }
      }
    }

    const bool kpi_day = config_.collect_kpis && day >= kpi_first_day;
    if (kpi_day) kpi_closer.begin_day(day);

    const bool collect_homes = !run_state.homes_finalized;
    const bool track_matrix = ds.london_matrix != nullptr;

    // Chunk-load slot maps are sized lazily on the first KPI day;
    // reduction leaves every buffer cleared, so there is no other per-day
    // reset.
    if (kpi_day && !chunk_bufs[0].load.sized())
      for (auto& b : chunk_bufs) b.load.size_for(kpi_closer.collected_cells());
    // Day accumulators drained by the chunk-order reduction below.
    double roamers_today = 0.0;
    std::uint64_t obs_expected_today = 0;
    std::uint64_t obs_observed_today = 0;
    std::uint64_t sig_forwarded_today = 0;
    std::uint64_t sig_dropped_today = 0;
    // Hour filtering only matters on days with an actual outage window.
    const std::uint32_t sig_outage_mask =
        faults_on ? fault_plan.signaling_down_mask(day) : 0;
    const bool sig_out_today = sig_outage_mask != 0;
    const traffic::VoiceDayRates voice_rates = voice_model.day_rates(day);
    const traffic::DemandDayRates demand_rates = demand_model.day_rates(day);

    // --- Per-user simulation (runs inside a pool worker; writes only to
    // its chunk buffer, its WorkerCtx and the user's own state/places). ---
    const auto process_user = [&](std::size_t i, ChunkBuf& b, WorkerCtx& ctx) {
      mobility::DayPlan& plan = ctx.plan;
      telemetry::UserDayObservation& observation = ctx.observation;
      std::vector<traffic::CellStay>& cell_stays = ctx.cell_stays;
      const population::Subscriber& user = subscribers[i];
      mobility::UserState& state = user_states[i];
      if (obs_on) ctx.metrics.add(m_user_days);
      Rng rng = root.fork("user-day", i * 1024 + static_cast<std::size_t>(day));

      relocation.maybe_decide(user, user_places[i], state, day, rng);

      if (!user.smartphone) {
        // M2M devices are static: pinned to the home place around the clock.
        plan.stays.clear();
        if (!state.departed) plan.stays.push_back({0, 0, kHoursPerDay});
      } else {
        trajectories.plan_day(user, user_places[i], state, day, rng, plan);
      }
      if (plan.empty()) return;
      if (!user.native) b.roamers += 1.0;

      // --- Build the tower-level observation (merge stays per site). ---
      if (obs_on) ctx.metrics.add(m_observations);
      observation.user = user.id;
      observation.day = day;
      observation.stays.clear();
      for (const auto& stay : plan.stays) {
        const PlaceCells& pc = cells_of(i, stay.place);
        telemetry::TowerStay* tower = nullptr;
        for (auto& existing : observation.stays) {
          if (existing.site == pc.site) {
            tower = &existing;
            break;
          }
        }
        if (tower == nullptr) {
          observation.stays.emplace_back();
          tower = &observation.stays.back();
          tower->site = pc.site;
          tower->location = pc.site_location;
          tower->county = pc.county;
          tower->district = pc.district;
          tower->hours = 0.0f;
          tower->night_hours = 0.0f;
          tower->bin_hours.fill(0.0f);
        }
        if (!sig_out_today) {
          const float hours =
              static_cast<float>(stay.end_hour - stay.start_hour);
          tower->hours += hours;
          for (int h = stay.start_hour; h < stay.end_hour; ++h) {
            tower->bin_hours[static_cast<std::size_t>(four_hour_bin(h))] +=
                1.0f;
            if (is_nighttime(h)) tower->night_hours += 1.0f;
          }
        } else {
          // Hours inside a signaling-probe outage never reach the feed: the
          // stay's dwell shrinks to its visible hours (the subscriber still
          // moved; the record just doesn't show it).
          for (int h = stay.start_hour; h < stay.end_hour; ++h) {
            if ((sig_outage_mask >> h) & 1u) continue;
            tower->hours += 1.0f;
            tower->bin_hours[static_cast<std::size_t>(four_hour_bin(h))] +=
                1.0f;
            if (is_nighttime(h)) tower->night_hours += 1.0f;
          }
        }
      }
      if (sig_out_today)
        std::erase_if(observation.stays, [](const telemetry::TowerStay& t) {
          return t.hours <= 0.0f;
        });

      const bool eligible = user.native && user.smartphone;
      // Record-level fault gate: a dropped (or fully outage-eclipsed)
      // observation is invisible to every consumer of the signaling feed —
      // home detection, mobility metrics and the relocation matrix alike.
      bool feed_visible = true;
      if (faults_on && eligible) {
        ++b.obs_expected;
        if (observation.stays.empty() ||
            fault_plan.drop_observation(static_cast<std::uint32_t>(i), day))
          feed_visible = false;
        else
          ++b.obs_observed;
      }
      if (eligible && feed_visible) {
        if (collect_homes) b.detector_obs.push_back(observation);
        // Mobility metrics, grouped by residence (Section 2.3 aggregates at
        // home-postcode granularity and up). Buffered per chunk; applied in
        // user-index order by the chunk reduction.
        if (const auto metrics = analysis::compute_day_metrics(observation)) {
          MobilityResult result;
          result.user = static_cast<std::uint32_t>(i);
          result.entropy = metrics->entropy;
          result.gyration = metrics->gyration_km;
          if (config_.collect_binned_mobility) {
            for (int bin = 0; bin < kFourHourBinsPerDay; ++bin) {
              analysis::MobilityMetricOptions options;
              options.four_hour_bin = bin;
              if (const auto m =
                      analysis::compute_day_metrics(observation, options)) {
                result.bin_entropy[static_cast<std::size_t>(bin)] =
                    static_cast<float>(m->entropy);
                result.bin_gyration[static_cast<std::size_t>(bin)] =
                    static_cast<float>(m->gyration_km);
                result.bin_mask |= static_cast<std::uint8_t>(1u << bin);
              }
            }
          }
          b.mobility.push_back(result);
          if (obs_on) ctx.metrics.add(m_mobility);
        }
        if (track_matrix && tracked_london[i])
          b.matrix_obs.push_back(observation);
      }

      // --- Traffic and signaling. ---
      if (!kpi_day) return;
      int active_data_hours = 0;
      int voice_calls = 0;
      cell_stays.clear();
      for (const auto& stay : plan.stays) {
        const PlaceCells& pc = cells_of(i, stay.place);
        const mobility::PlaceKind kind = user_places[i].places[stay.place].kind;
        const auto context = traffic::wifi_context(kind);
        const double activity = demand_model.activity_factor(kind, day);
        cell_stays.push_back({pc.lte_cell, stay.start_hour, stay.end_hour});

        for (int h = stay.start_hour; h < stay.end_hour; ++h) {
          // RAT for this hour (~75% of connected time on 4G).
          const bool on_lte =
              !pc.site_has_legacy || rng.chance(config_.lte_time_share);
          if (on_lte) {
            b.lte_hours += 1.0;
          } else {
            b.legacy_hours += 1.0;
          }

          const auto voice = voice_model.sample_hour(user, voice_rates, h, rng);
          if (voice.minutes > 0.0) {
            ++voice_calls;
            ++b.load.voice_attempts[static_cast<std::size_t>(h)];
            // All off-net conversational minutes (any RAT) cross the
            // inter-MNO trunks.
            b.load.offnet_minutes[static_cast<std::size_t>(h)] +=
                voice.minutes * voice.offnet_fraction;
          }

          // Serving cell for the load accounting. Legacy hours are outside
          // the paper's KPI scope and are only accumulated when the
          // scenario opts into legacy collection.
          std::uint32_t serving =
              pc.ordinal_by_rat[static_cast<int>(radio::Rat::k4G)];
          if (!on_lte) {
            if (!config_.collect_legacy_kpis) continue;
            // Camped on 3G where deployed (2G for ~30% of the legacy dwell
            // when both layers exist).
            if (pc.has_3g && (!pc.has_2g || !rng.chance(0.3))) {
              serving = pc.ordinal_by_rat[static_cast<int>(radio::Rat::k3G)];
            } else if (pc.has_2g) {
              serving = pc.ordinal_by_rat[static_cast<int>(radio::Rat::k2G)];
            } else {
              continue;  // no legacy layer actually deployed here
            }
          }

          auto& load = b.load.at(serving, h);
          load.connected_users += 1.0;
          const auto demand = demand_model.sample_hour(
              user, context, demand_rates, h, rng, activity);
          load.offered_dl_mb += demand.dl_mb;
          load.offered_ul_mb += demand.ul_mb;
          load.active_dl_user_seconds += demand.active_dl_seconds;
          // Accumulate rate*seconds; normalized to the mean before
          // scheduling (see below).
          load.app_limited_dl_mbps +=
              demand.app_dl_rate_mbps * demand.active_dl_seconds;
          if (on_lte && demand.active_dl_seconds > 0.0) ++active_data_hours;
          if (voice.minutes > 0.0) {
            load.voice_dl_mb += voice.dl_mb;
            load.voice_ul_mb += voice.ul_mb;
            load.voice_user_seconds += voice.in_call_seconds;
            load.offnet_voice_fraction = voice.offnet_fraction;
          }
        }
      }
      if (config_.collect_signaling && !cell_stays.empty()) {
        signaling_gen.generate_day(user, cell_stays, day, active_data_hours,
                                   voice_calls, rng, b.signaling);
      }
    };

    // Work runs on a pool worker (or inline when worker_threads == 1) and
    // touches only its chunk buffer, its WorkerCtx and per-user state.
    const auto work = [&](std::size_t chunk, std::size_t slot,
                          std::size_t begin, std::size_t end,
                          std::size_t worker) {
      (void)chunk;
      // One span per chunk, on the executing worker's display lane.
      const auto chunk_span =
          tracer.span("day.users.chunk", "worker", day,
                      static_cast<std::uint32_t>(worker + 1));
      ChunkBuf& b = chunk_bufs[slot];
      WorkerCtx& ctx = workers[worker];
      // Snapshot the chunk's mutable inputs so a supervised retry can
      // rewind to exactly this point.
      b.state_snapshot.assign(
          user_states.begin() + static_cast<std::ptrdiff_t>(begin),
          user_states.begin() + static_cast<std::ptrdiff_t>(end));
      b.places_snapshot.clear();
      for (std::size_t i = begin; i < end; ++i)
        b.places_snapshot.emplace_back(
            static_cast<std::uint8_t>(user_places[i].size()),
            user_places[i].refuge_index);
      // Fresh per attempt, so a retried chunk leaves no counts behind.
      b.signaling = {.outage_mask = sig_outage_mask};
      for (std::size_t i = begin; i < end; ++i) process_user(i, b, ctx);
    };

    // Rewinds a chunk to its pre-work snapshot after a failed attempt:
    // per-user state and any refuge place the attempt appended roll back,
    // every buffer accumulator clears. With the inputs restored, the rerun
    // draws the same per-user RNG forks and reproduces the attempt bit for
    // bit — so a retried chunk is indistinguishable in the Dataset.
    const auto reset_chunk = [&](std::size_t chunk, std::size_t slot) {
      ChunkBuf& b = chunk_bufs[slot];
      const std::size_t begin = chunk * chunk_size;
      std::copy(b.state_snapshot.begin(), b.state_snapshot.end(),
                user_states.begin() + static_cast<std::ptrdiff_t>(begin));
      for (std::size_t k = 0; k < b.places_snapshot.size(); ++k) {
        mobility::UserPlaces& places = user_places[begin + k];
        const auto [n_places, refuge] = b.places_snapshot[k];
        if (places.places.size() > n_places) places.places.resize(n_places);
        places.refuge_index = refuge;
        // The lazy serving-cell cache may have resolved the rolled-back
        // place; truncate so the rerun re-resolves it identically.
        auto& resolved = place_cells[begin + k];
        if (resolved.size() > n_places) resolved.resize(n_places);
      }
      b.load.clear();
      b.roamers = 0.0;
      b.lte_hours = 0.0;
      b.legacy_hours = 0.0;
      b.mobility.clear();
      b.detector_obs.clear();
      b.matrix_obs.clear();
      b.obs_expected = 0;
      b.obs_observed = 0;
    };

    // Reduce runs on this thread in ascending chunk order — the only
    // writer of Dataset and day state — and leaves the slot cleared.
    const auto reduce = [&](std::size_t chunk, std::size_t slot) {
      (void)chunk;
      ChunkBuf& b = chunk_bufs[slot];
      roamers_today += b.roamers;
      run_state.lte_hours += b.lte_hours;
      run_state.legacy_hours += b.legacy_hours;
      obs_expected_today += b.obs_expected;
      obs_observed_today += b.obs_observed;
      sig_forwarded_today += b.signaling.forwarded;
      sig_dropped_today += b.signaling.dropped;
      b.roamers = 0.0;
      b.lte_hours = 0.0;
      b.legacy_hours = 0.0;
      b.obs_expected = 0;
      b.obs_observed = 0;
      ds.signaling.add(day, b.signaling);
      b.state_snapshot.clear();
      b.places_snapshot.clear();
      for (const auto& obs : b.detector_obs)
        run_state.home_detector.observe(obs);
      b.detector_obs.clear();
      for (const auto& result : b.mobility) {
        const population::Subscriber& user = subscribers[result.user];
        if (config_.collect_binned_mobility) {
          for (int bin = 0; bin < kFourHourBinsPerDay; ++bin) {
            if (!(result.bin_mask & (1u << bin))) continue;
            ds.entropy_by_bin.add(
                static_cast<std::size_t>(bin), day,
                static_cast<double>(
                    result.bin_entropy[static_cast<std::size_t>(bin)]));
            ds.gyration_by_bin.add(
                static_cast<std::size_t>(bin), day,
                static_cast<double>(
                    result.bin_gyration[static_cast<std::size_t>(bin)]));
          }
        }
        ds.entropy_national.add(0, day, result.entropy);
        ds.gyration_national.add(0, day, result.gyration);
        ds.entropy_distribution.add(day, result.entropy);
        ds.gyration_distribution.add(day, result.gyration);
        const auto region = static_cast<std::size_t>(user.home_region);
        ds.entropy_by_region.add(region, day, result.entropy);
        ds.gyration_by_region.add(region, day, result.gyration);
        const auto cluster = static_cast<std::size_t>(user.home_cluster);
        ds.entropy_by_cluster.add(cluster, day, result.entropy);
        ds.gyration_by_cluster.add(cluster, day, result.gyration);
      }
      b.mobility.clear();
      for (const auto& obs : b.matrix_obs) ds.london_matrix->observe(obs);
      b.matrix_obs.clear();
      if (kpi_day) b.load.merge_into(kpi_closer.day_load());
    };

    {
      // "day.users" now covers the fan-out *and* the in-flight reduction:
      // completed chunks fold into the Dataset while later chunks are
      // still being simulated.
      const auto users_span = tracer.span("day.users", "sim", day);
      try {
        supervisor.run(day, n_users, chunk_size, work, reset_chunk, reduce);
      } catch (DayFailed& failed) {
        // Attach the partial Dataset so the bench can still write a
        // manifest + quality ledger for the run before exiting 5. It holds
        // every completed day plus whatever chunks of the failed day
        // reduced before the drain; resume discards the failed day anyway
        // (the checkpoint stops at the previous one).
        ds.recovery.supervisor_retries = supervisor.stats().retries;
        ds.recovery.supervisor_failures = supervisor.stats().failures;
        ds.recovery.supervisor_stalls = supervisor.stats().stalls;
        failed.partial = std::make_shared<Dataset>(std::move(ds));
        throw;
      }
    }
    // The pool's balance record for the users phase, read before the day
    // close's fan-outs replace it.
    if (obs_on) {
      registry.add(m_pool_chunks, n_chunks);
      const auto& per_worker = pool.chunks_per_worker();
      // "Stolen" chunks: work a worker pulled beyond the static fair share
      // a shard-per-thread engine would have pinned on it.
      const std::uint64_t fair_share =
          (n_chunks + per_worker.size() - 1) / per_worker.size();
      std::uint64_t stolen = 0;
      std::uint64_t busiest = per_worker[0];
      std::uint64_t laziest = per_worker[0];
      for (const auto count : per_worker) {
        if (count > fair_share) stolen += count - fair_share;
        busiest = std::max(busiest, count);
        laziest = std::min(laziest, count);
      }
      registry.add(m_pool_steals, stolen);
      pool_imbalance_hist->record(100.0 *
                                  static_cast<double>(busiest - laziest) /
                                  static_cast<double>(n_chunks));
    }

    // --- Day tail: seal the distributions, account the feeds. ---
    auto apply_span = tracer.span("day.apply", "sim", day);
    ds.roamers_active.set(day, roamers_today);
    seal_distributions(pool, ds, day);

    // Quality accounting for the signaling-derived feeds (faulted runs
    // only; a clean run keeps the report empty and its output untouched).
    if (faults_on) {
      ds.quality.expect("user-observations", day, obs_expected_today);
      ds.quality.observe("user-observations", day, obs_observed_today);
      if (config_.collect_signaling) {
        ds.quality.expect("signaling-events", day,
                          sig_forwarded_today + sig_dropped_today);
        ds.quality.observe("signaling-events", day, sig_forwarded_today);
      }
    }
    apply_span.close();

    // --- Schedule the day's cell-hours and reduce to daily KPIs. ---
    if (kpi_day) {
      const auto schedule_span = tracer.span("day.schedule", "sim", day);
      const std::uint64_t cells_before = kpi_closer.counters().cells_scheduled;
      const std::uint64_t day_rows = kpi_closer.close(run_state, ds, sink);
      if (obs_on) {
        registry.add(m_cells,
                     kpi_closer.counters().cells_scheduled - cells_before);
        registry.add(m_kpi_rows, day_rows);
        // Only rows the Dataset keeps: a sink run hands them over below.
        if (sink == nullptr)
          obs::track_bytes(obs::Subsystem::kSim,
                           day_rows * sizeof(telemetry::CellDayRecord));
      }
    }

    // Fold worker metric deltas into the registry at day (phase) end and
    // account the day's wall time.
    if (obs_on) {
      for (auto& w : workers) registry.merge(w.metrics);
      day_wall_hist->record(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - day_clock_start)
              .count());
    }

    // Day complete: every accumulator above is reduced and published.
    // Persist the resumable state, then honor any pending interrupt — both
    // only at this boundary, so a checkpoint always describes whole days
    // and an interrupted run is exactly a resumable one.
    if (checkpoint != nullptr) {
      const auto ckpt_span = tracer.span("day.checkpoint", "sim", day);
      const auto ckpt_start = std::chrono::steady_clock::now();
      checkpoint->on_day_complete(
          day, encode_record(day, run_state, ds, homes_in_record));
      homes_in_record = false;
      if (obs_on) {
        const double ckpt_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() -
                                   ckpt_start)
                                   .count();
        checkpoint_hist->record(ckpt_ms);
        obs::timeline().record_checkpoint_ms(ckpt_ms);
      }
    }
    // The sink and the day's record hold the day's KPI rows now, so a sink
    // run lets go of them: the Dataset keeps their counts only.
    if (sink != nullptr) ds.kpis.release_rows();
    // Day-boundary health sample, after the checkpoint so its latency is
    // this day's, not the previous one's. Reads clocks, /proc and counters
    // only — a sampled run stays bit-identical to an unsampled one.
    if (obs_on) obs::timeline().sample_day(day);
    if (interrupt_requested() && day < last_day)
      throw RunInterrupted{day, std::make_shared<Dataset>(std::move(ds))};
  }

  ds.recovery.supervisor_retries = supervisor.stats().retries;
  ds.recovery.supervisor_failures = supervisor.stats().failures;
  ds.recovery.supervisor_stalls = supervisor.stats().stalls;

  // Whole-run conservation laws, now that every store is final (signaling
  // probes merge per chunk inside the day loop).
  if (audit_on) {
    const auto span = tracer.span("audit.global", "audit");
    audit_dataset_global(ds, ds.audit_report);
  }

  // Publish the leaf-module counters (each accumulated locally on its
  // serial path) and the run-level resource gauges.
  if (obs_on) {
    const auto& scheduled = kpi_closer.counters().scheduler;
    registry.add("scheduler.hours_scheduled", scheduled.hours_scheduled);
    registry.add("scheduler.hours_dl_saturated", scheduled.hours_dl_saturated);
    registry.add("interconnect.hours_evaluated",
                 kpi_closer.interconnect().hours_evaluated());
    registry.add("interconnect.hours_saturated",
                 kpi_closer.interconnect().hours_saturated());
    registry.add("probe.signaling_events", ds.signaling.events_ingested());
    registry.add("supervisor.retries", supervisor.stats().retries);
    registry.add("supervisor.failures", supervisor.stats().failures);
    registry.add("supervisor.stalls", supervisor.stats().stalls);
    std::uint64_t quarantined = 0;
    for (const auto& feed : ds.quality.feeds())
      quarantined += feed.quarantined_records;
    registry.add("quality.quarantined_records", quarantined);
    registry.set_gauge("process.peak_rss_kb",
                       static_cast<double>(obs::peak_rss_kb()));
  }

  if (const double hours = run_state.lte_hours + run_state.legacy_hours;
      hours > 0.0)
    ds.measured_lte_time_share = run_state.lte_hours / hours;

  // Degenerate scenarios that never reach week 9 still finalize homes.
  if (!run_state.homes_finalized) {
    ds.homes = run_state.finalize_homes();
    ds.home_validation = analysis::validate_homes(
        geography, ds.homes, static_cast<std::int64_t>(ds.eligible_users));
  }
  return ds;
}

}  // namespace cellscope::sim

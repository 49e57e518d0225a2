// service-mix: a PhotonService behind the real Unix-socket daemon
// (run_daemon, max_active = 2), driven by a closed loop.
//
//   submitters  two client threads, each doing `submit` then `wait` on a
//               fresh connection per request, as photon_cli does; the next
//               job is sent only when the previous reply arrived
//   poller      one thread sending `status` every 50 ms, so daemon reads run
//               beside the submits
//
// Jobs come from a seeded deck: every block of 30 jobs is a shuffle of all
// (scene × backend × width) combinations over cornell/harpsichord/lab, the
// five backend names and two shapes of width <= 2 — so every seed offers the
// same mix and only the order changes.
//
// The run alternates rounds: a closed-loop segment, then, with the service
// idle, single-process phases for the mix's serial baseline, a reference job
// resumed in legs and rendered, and one spare-daemon bring-up for setup_s.
// At the end one sampled job's answer is checked against a solo run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "core/rng.hpp"
#include "geom/scenes.hpp"
#include "layers.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "sim/checkpoint.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace photon;

namespace {

constexpr double kSegmentSeconds = 1.5;  // closed-loop time per round

const char* const kScenes[] = {"cornell", "harpsichord", "lab"};
const char* const kBackends[] = {"serial", "shared", "dist-particle", "dist-spatial", "hybrid"};

// Photons per job, scaled so jobs on every scene take a similar time.
std::uint64_t job_photons(const std::string& scene) {
  return scene == "cornell" ? 40000 : 20000;
}

// The submit line of deck entry k.
std::string deck_line(std::uint64_t seed, std::uint64_t k) {
  constexpr int kCombos = 3 * 5 * 2;
  const std::uint64_t block = k / kCombos;
  int order[kCombos];
  for (int i = 0; i < kCombos; ++i) order[i] = i;
  Lcg48 rng(seed * 1000003ULL + block);
  for (int i = kCombos - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_int(static_cast<std::uint64_t>(i) + 1)]);
  }
  const int combo = order[k % kCombos];
  const std::string scene = kScenes[combo / 10];
  const std::string backend = kBackends[(combo / 2) % 5];
  const bool wide = combo % 2;
  int workers = wide ? 2 : 1, groups = 1;
  if (backend == "hybrid") {
    groups = wide ? 2 : 1;
    workers = wide ? 1 : 2;
  }
  return "submit scene=" + scene + " backend=" + backend +
         " photons=" + std::to_string(job_photons(scene)) +
         " seed=" + std::to_string(seed * 7919 + k + 1) + " workers=" + std::to_string(workers) +
         " groups=" + std::to_string(groups);
}

// Numeric field `"key": value` of a one-line JSON reply; -1 when absent.
double json_number(const std::string& reply, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t at = reply.find(needle);
  return at == std::string::npos ? -1.0 : std::strtod(reply.c_str() + at + needle.size(), nullptr);
}

std::shared_ptr<const Scene> load_resident(const std::string& name, AccelKind kind) {
  Span span("geom", "scenes::by_name (+Scene::build)");
  auto scene = std::make_shared<Scene>(scenes::by_name(name));
  validate_scene(*scene);
  if (kind != scene->accel_kind()) {
    scene->set_accel(kind);
    scene->build();
  }
  return scene;
}

// One request on its own connection, as photon_cli sends it.
class Wire {
 public:
  explicit Wire(std::string socket) : socket_(std::move(socket)) {}
  bool request(const char* what, const std::string& line, std::string& reply) {
    Span span("service", std::string("ServiceClient ") + what);
    connections_.fetch_add(1, std::memory_order_relaxed);
    ServiceClient client(socket_);
    return client.ok() && client.request(line, reply) && reply.rfind("{\"error\"", 0) != 0;
  }
  std::uint64_t connections() const { return connections_.load(); }

 private:
  std::string socket_;
  std::atomic<std::uint64_t> connections_{0};
};

// A PhotonService served by run_daemon on its own thread.
class Daemon {
 public:
  explicit Daemon(const std::string& socket) : socket_(socket) {
    Span span("service", "PhotonService + run_daemon");
    ServiceConfig config;
    config.max_active = 2;
    service_ = std::make_unique<PhotonService>(config, load_resident);
    thread_ = std::thread(
        [this] { run_daemon(*service_, socket_, [this] { return stop_.load(); }); });
  }
  ~Daemon() {
    stop_.store(true);
    // A connection wakes the accept loop's poll now instead of at its next
    // stop-flag tick; it fails harmlessly once the loop has closed.
    { ServiceClient wake(socket_); }
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  PhotonService& service() { return *service_; }

 private:
  std::string socket_;
  std::unique_ptr<PhotonService> service_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Asks the daemon to shut down and joins it.
void stop(Wire& wire, std::unique_ptr<Daemon>& daemon) {
  std::string reply;
  wire.request("shutdown", "shutdown", reply);
  daemon.reset();
}

// Waits until the daemon answers ping, then loads every resident scene with
// a tiny job per scene.
bool bring_up(Wire& wire) {
  std::string reply;
  const auto t0 = Clock::now();
  while (!wire.request("ping", "ping", reply)) {
    if (seconds_since(t0) > 10.0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const char* scene : kScenes) {
    if (!wire.request("submit", std::string("submit scene=") + scene + " photons=100", reply)) {
      return false;
    }
    const auto id = static_cast<std::uint64_t>(json_number(reply, "job"));
    if (!wire.request("wait", "wait job=" + std::to_string(id), reply)) return false;
  }
  return true;
}

struct LoopResult {
  double wall_s = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  double photons = 0.0;
  std::vector<double> latency_s, run_s, queue_s, rtt_s;

  void append(const LoopResult& o) {
    wall_s += o.wall_s;
    submitted += o.submitted;
    done += o.done;
    photons += o.photons;
    for (auto [to, from] : {std::pair{&latency_s, &o.latency_s}, std::pair{&run_s, &o.run_s},
                            std::pair{&queue_s, &o.queue_s}, std::pair{&rtt_s, &o.rtt_s}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
};

LoopResult closed_loop(Wire& wire, std::uint64_t seed, double seconds,
                       std::atomic<std::uint64_t>& next, const std::string& sampled_ckpt) {
  LoopResult out;
  std::mutex m;  // guards out
  std::atomic<std::uint64_t> last_id{0};
  std::atomic<int> running{2};
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);

  auto submitter = [&] {
    while (Clock::now() < deadline) {
      const std::uint64_t k = next.fetch_add(1);
      std::string line = deck_line(seed, k);
      if (k == 0) line += " checkpoint=" + sampled_ckpt;
      std::string reply;
      const auto s0 = Clock::now();
      bool ok = wire.request("submit", line, reply);
      const auto id = static_cast<std::uint64_t>(std::max(0.0, json_number(reply, "job")));
      if (ok) last_id.store(id);
      ok = ok && wire.request("wait", "wait job=" + std::to_string(id), reply);
      const double latency = seconds_since(s0);
      ok = ok && reply.find("\"state\": \"done\"") != std::string::npos &&
           json_number(reply, "emitted") == json_number(reply, "photons_requested");
      std::lock_guard<std::mutex> lock(m);
      ++out.submitted;
      if (!ok) {
        std::fprintf(stderr, "perfbench: job '%s' did not finish: %s\n", line.c_str(),
                     reply.c_str());
        continue;
      }
      ++out.done;
      const double run = json_number(reply, "wall_s");
      out.photons += json_number(reply, "emitted");
      out.latency_s.push_back(latency);
      out.run_s.push_back(run);
      out.queue_s.push_back(std::max(0.0, latency - run));
    }
    running.fetch_sub(1);
  };
  auto poller = [&] {
    auto due = Clock::now();
    while (running.load() > 0) {
      const std::uint64_t id = last_id.load();
      const std::string line = id ? "status job=" + std::to_string(id) : "ping";
      std::string reply;
      const auto p0 = Clock::now();
      const bool ok = wire.request("status", line, reply);
      const double rtt = seconds_since(p0);
      if (ok) {
        std::lock_guard<std::mutex> lock(m);
        out.rtt_s.push_back(rtt);
      }
      due += std::chrono::milliseconds(50);
      std::this_thread::sleep_until(due);
    }
  };
  std::thread a(submitter), b(submitter), p(poller);
  a.join();
  b.join();
  out.wall_s = seconds_since(t0);
  p.join();
  return out;
}

}  // namespace

void run_service_mix(const Options& options, Report& report) {
  const std::string socket = options.out_dir + "/service.sock";
  const std::string sampled_ckpt = options.out_dir + "/sampled.ckpt";
  Wire wire(socket);
  SpanLog log(options.workload);

  // ---- set-up: service + daemon + every resident-scene load ----------------
  // setup_s is the median over one bring-up per round: the first is the
  // daemon the loop runs against, the others a spare daemon on its own
  // socket, brought up and shut down after each round.
  std::vector<double> setup_s;
  const auto timed_bring_up = [&](const std::string& path, Wire& client) {
    const auto t0 = Clock::now();
    auto d = std::make_unique<Daemon>(path);
    if (!report.check(bring_up(client), "daemon comes up and loads the resident scenes")) {
      stop(client, d);
      return d;
    }
    setup_s.push_back(seconds_since(t0));
    return d;
  };
  std::unique_ptr<Daemon> daemon = timed_bring_up(socket, wire);
  if (!daemon) return;
  Wire spare_wire(options.out_dir + "/spare.sock");
  const std::uint64_t setup_connections = wire.connections();
  const double setup_vm_mb = vm_size_mb();

  // The single-process phases' inputs: the resident scenes again (the
  // service's copies are private to it) and a reference job, lab on hybrid
  // with 2 groups x 1 worker, whose answer every round resumes and renders.
  std::vector<std::shared_ptr<const Scene>> resident;
  for (const char* name : kScenes) resident.push_back(load_resident(name, AccelKind::kOctree));
  const Scene& lab = *resident[2];
  const RunConfig ref_config = cli_config(20000, options.seed, 1, 2);
  const RunResult reference = governed_run("hybrid", lab, ref_config);
  report.check(conserved(reference, ref_config.photons), "reference job conserves photons");
  const SceneBuilder build_lab = [] {
    auto scene = std::make_unique<Scene>();
    {
      Span span("geom", "scenes::by_name (+Scene::build)");
      *scene = scenes::by_name("lab");
    }
    validate_scene(*scene);
    return scene;
  };

  // ---- rounds: a closed-loop segment, then the single-process phases -------
  std::atomic<std::uint64_t> next{0};
  LoopResult loop[2];  // [traced]
  std::vector<double> jobs_per_s[2], photons_per_s[2], serial_rate[2], resume_rate[2],
      frames_per_s[2], frame_s[2], save_s[2], load_s[2], ref_s[2];
  double checkpoint_mb = 0.0;
  std::uint64_t view_checksum = 0;
  const auto t0 = Clock::now();
  for (int round = 0; round < (options.trace ? 4 : 2) || seconds_since(t0) < options.seconds;
       ++round) {
    const int traced = options.trace && round % 2 == 1;
    SpanLog::install(traced ? &log : nullptr);

    const LoopResult segment = closed_loop(wire, options.seed, kSegmentSeconds, next, sampled_ckpt);
    jobs_per_s[traced].push_back(static_cast<double>(segment.done) / segment.wall_s);
    photons_per_s[traced].push_back(segment.photons / segment.wall_s);
    loop[traced].append(segment);

    double photons = 0.0, wall = 0.0;
    for (std::size_t s = 0; s < resident.size(); ++s) {
      const std::uint64_t n = 3 * job_photons(kScenes[s]);
      const auto s0 = Clock::now();
      const RunResult r = governed_run("serial", *resident[s], cli_config(n, options.seed, 1, 1));
      wall += seconds_since(s0);
      photons += static_cast<double>(n);
      report.check(conserved(r, n), "serial baseline job conserves photons");
    }
    serial_rate[traced].push_back(photons / wall);

    const auto r0 = Clock::now();
    const RunResult straight = governed_run("hybrid", lab, ref_config);
    ref_s[traced].push_back(seconds_since(r0));
    report.check(same_forest(straight.forest, reference.forest), "reference answer repeats");

    const ResumeRun resumed =
        resume_in_legs(build_lab, "hybrid", ref_config, 2, options.out_dir + "/resume.ckpt");
    resume_rate[traced].push_back(static_cast<double>(ref_config.photons) / resumed.wall_s);
    save_s[traced].insert(save_s[traced].end(), resumed.save_s.begin(), resumed.save_s.end());
    load_s[traced].insert(load_s[traced].end(), resumed.load_s.begin(), resumed.load_s.end());
    checkpoint_mb = resumed.checkpoint_mb;
    report.check(resumed.ok && same_forest(resumed.result.forest, reference.forest),
                 "resumed reference equals the straight run's");

    const ViewRun view = render_path(lab, reference.forest, options.seed, 12, 320, 240);
    double total = 0.0;
    for (double f : view.frame_s) total += f;
    frame_s[traced].insert(frame_s[traced].end(), view.frame_s.begin(), view.frame_s.end());
    frames_per_s[traced].push_back(static_cast<double>(view.frame_s.size()) / total);
    report.count(view.frame_s.size());
    if (round == 0) view_checksum = view.checksum;
    report.check(view.checksum == view_checksum, "render checksum repeats");

    SpanLog::install(nullptr);

    std::unique_ptr<Daemon> spare = timed_bring_up(options.out_dir + "/spare.sock", spare_wire);
    stop(spare_wire, spare);
  }

  const double vm_mb = vm_size_mb();
  const std::uint64_t loads = daemon->service().scene_loads();
  const std::uint64_t loop_connections = wire.connections() - setup_connections;
  stop(wire, daemon);

  const std::uint64_t submitted = loop[0].submitted + loop[1].submitted;
  const std::uint64_t done = loop[0].done + loop[1].done;
  report.count(done);
  for (std::uint64_t i = done; i < submitted; ++i) report.check(false, "job completes");
  report.check(loads == 3, "three resident-scene loads for the whole run");

  // ---- the sampled job's answer equals a solo run of the same spec ----------
  {
    const JobSpec spec = job_spec_from_request(parse_request(deck_line(options.seed, 0)));
    RunConfig config = spec.config;
    config.governed = true;
    const std::shared_ptr<const Scene> scene = load_resident(spec.scene, config.accel);
    const RunResult solo = governed_run(spec.backend, *scene, config);
    RunResult served;
    const bool loaded = load_checkpoint(sampled_ckpt, served);
    report.check(loaded && conserved(served, config.photons) &&
                     same_forest(served.forest, solo.forest),
                 "sampled service job conserves photons and equals a solo run of its spec");
  }

  const std::vector<double>& latency = loop[0].latency_s;
  report.metric("photons_per_s", median(photons_per_s[0]), "1/s");
  report.metric("serial_photons_per_s", median(serial_rate[0]), "1/s");
  report.metric("resume_photons_per_s", median(resume_rate[0]), "1/s");
  report.metric("view_frames_per_s", median(frames_per_s[0]), "1/s");
  report.metric("jobs_per_s", median(jobs_per_s[0]), "1/s");
  report_job_latency(report, latency);
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  const LoopResult& measured = loop[options.trace ? 1 : 0];
  report.metric("service.queue_s", median(measured.queue_s), "s");
  report.metric("service.run_s", median(measured.run_s), "s");
  report.metric("service.rtt_s", median(measured.rtt_s), "s");
  report.metric("service.scene_loads", static_cast<double>(loads), "count");
  report.metric("service.connections", static_cast<double>(loop_connections), "count");
  report.metric("service.vm_mb", vm_mb, "MB");
  report.metric("service.vm_mb_per_connection",
                (vm_mb - setup_vm_mb) /
                    static_cast<double>(std::max<std::uint64_t>(1, loop_connections)),
                "MB");

  if (!options.trace) return;

  SpanLog::install(&log);
  std::vector<double> build_s;
  Scene probe_scene = scenes::by_name("lab");
  for (int i = 0; i < 3; ++i) {
    Span span("geom", "Scene::build");
    const auto b0 = Clock::now();
    probe_scene.build();
    build_s.push_back(seconds_since(b0));
  }
  report.metric("geom.build_s", median(build_s), "s");
  report.metric("geom.accel_mb", static_cast<double>(lab.accel().memory_bytes()) / 1e6, "MB");
  const GeomProbe probe = probe_geometry(lab, options.seed, 50000);
  report.metric("geom.nodes_per_ray", static_cast<double>(probe.nodes) / probe.rays, "count");
  report.metric("geom.tests_per_ray", static_cast<double>(probe.tests) / probe.rays, "count");
  report.metric("geom.rays_per_s", probe.rays_per_s, "1/s");
  SpanLog::install(nullptr);

  report_forest(report, reference);
  const PoolMeters pool = pool_meters(reference);
  report.metric("pool.steals_per_chunk", pool.steals_per_chunk, "count");
  report.metric("pool.imbalance", pool.imbalance, "ratio");
  report.metric("par.run_s", median(ref_s[1]), "s");
  const WireMeters wire_m = wire_meters(reference);
  report.metric("mp.bytes_per_photon", wire_m.bytes_per_photon, "B");
  report.metric("mp.messages_per_photon", wire_m.messages_per_photon, "count");
  report.metric("mp.wait_s", wire_m.wait_s, "s");
  report.metric("checkpoint.save_s", median(save_s[1]), "s");
  report.metric("checkpoint.load_s", median(load_s[1]), "s");
  report.metric("checkpoint.mb", checkpoint_mb, "MB");
  report.metric("resume.overhead",
                static_cast<double>(ref_config.photons) / median(ref_s[1]) /
                        median(resume_rate[1]) -
                    1.0,
                "ratio");
  report.metric("view.frame_s", median(frame_s[1]), "s");
  report_self_times(report, log);
  report.metric("trace.overhead", median(photons_per_s[0]) / median(photons_per_s[1]) - 1.0,
                "ratio");
  write_trace(log, options);
}

}  // namespace perfbench

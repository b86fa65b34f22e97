#include "dist/solve_driver.h"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <vector>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "dist/process.h"
#include "dist/wire.h"
#include "serving/table_io.h"
#include "util/expect.h"

namespace cav::dist {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Whether a stencil cache that failed to open is stale and may be compiled
/// over: missing, another container version, or damaged.  A file that is
/// not a stencil image at all ("bad magic", "wrong table kind") is refused,
/// never overwritten.
bool stale_cache(const serving::TableIoError& e) {
  return e.reason() == "cannot open" || e.reason() == "bad version" ||
         e.reason() == "checksum mismatch" || e.reason() == "truncated";
}

bool same_space(const acasx::StateSpaceConfig& a, const acasx::StateSpaceConfig& b) {
  return a.h_ft == b.h_ft && a.dh_own_fps == b.dh_own_fps && a.dh_int_fps == b.dh_int_fps &&
         a.tau_max == b.tau_max;
}

bool same_dynamics(const acasx::DynamicsConfig& a, const acasx::DynamicsConfig& b) {
  return a.dt_s == b.dt_s && a.accel_initial_fps2 == b.accel_initial_fps2 &&
         a.accel_strength_fps2 == b.accel_strength_fps2 &&
         a.accel_noise_sigma_fps2 == b.accel_noise_sigma_fps2;
}

bool same_costs(const acasx::CostModel& a, const acasx::CostModel& b) {
  return a.nmac_cost == b.nmac_cost && a.nmac_h_ft == b.nmac_h_ft &&
         a.maneuver_cost == b.maneuver_cost &&
         a.strengthened_maneuver_cost == b.strengthened_maneuver_cost &&
         a.level_reward == b.level_reward && a.strengthen_cost == b.strengthen_cost &&
         a.reversal_cost == b.reversal_cost && a.termination_cost == b.termination_cost;
}

bool same_pair_config(const acasx::AcasXuConfig& a, const acasx::AcasXuConfig& b) {
  return same_space(a.space, b.space) && same_dynamics(a.dynamics, b.dynamics) &&
         same_costs(a.costs, b.costs);
}

bool same_secondary(const acasx::SecondaryAbstraction& a, const acasx::SecondaryAbstraction& b) {
  return a.h2_ft == b.h2_ft && a.num_delta_bins == b.num_delta_bins &&
         a.delta_step_s == b.delta_step_s && a.sense_rate_fps == b.sense_rate_fps &&
         a.sense_level_threshold_fps == b.sense_level_threshold_fps;
}

bool same_joint_config(const acasx::JointConfig& a, const acasx::JointConfig& b) {
  return same_space(a.space, b.space) && same_secondary(a.secondary, b.secondary) &&
         same_dynamics(a.dynamics, b.dynamics) && same_costs(a.costs, b.costs);
}

/// One solve worker: the process plus its current assignment (a grid
/// slice for the pair solve, a slab id for the joint solve).
struct SolveWorker {
  WorkerProcess proc;
  std::optional<std::size_t> job;
  bool answered = false;  ///< counted into workers_used once it replies
};

/// Spawn the fleet, consume each worker's kHello, and send the one setup
/// frame (`setup_type` + image path).  Workers that fail any of those
/// steps are dropped on the floor — the caller only ever iterates live
/// slots, and a short fleet just means more in-process fallback work.
std::vector<SolveWorker> spawn_solve_fleet(std::size_t count, const SolveDriverOptions& options,
                                           MsgType setup_type, const std::string& image_path,
                                           ShardedSolveReport& report) {
  std::vector<SolveWorker> fleet(count);
  for (SolveWorker& w : fleet) {
    try {
      w.proc = WorkerProcess::spawn(find_worker_binary(options.worker_path));
      std::optional<Frame> hello = read_frame(w.proc.out_fd());
      if (!hello.has_value() || hello->type != MsgType::kHello) {
        throw ProtocolError("worker did not say hello");
      }
      ByteReader in(hello->payload);
      if (in.u32() != kProtocolVersion) throw ProtocolError("protocol version mismatch");
      ByteWriter setup;
      setup.str(image_path);
      write_frame(w.proc.in_fd(), setup_type, setup.bytes());
    } catch (const ProtocolError&) {
      w.proc.kill();
      report.degraded = true;
    }
  }
  return fleet;
}

void count_answer(SolveWorker& w, ShardedSolveReport& report) {
  if (!w.answered) {
    w.answered = true;
    ++report.workers_used;
  }
}

}  // namespace

acasx::LogicTable solve_logic_table_sharded(const acasx::AcasXuConfig& config,
                                            const std::string& stencil_image,
                                            const SolveDriverOptions& options,
                                            ShardedSolveReport* report_out) {
  ::signal(SIGPIPE, SIG_IGN);
  const auto t0 = Clock::now();
  ShardedSolveReport report;

  // Compile-or-reuse the shared stencil image.  The driver keeps the
  // compiled model either way: it is the in-process fallback kernel.  A
  // stale image, like one compiled for another config, is compiled over.
  std::optional<acasx::CompiledAcasModel> model;
  try {
    model.emplace(acasx::CompiledAcasModel::open_stencils(stencil_image));
    if (!same_pair_config(model->config(), config)) model.reset();
  } catch (const serving::TableIoError& e) {
    if (!stale_cache(e)) throw;
  }
  if (!model.has_value()) {
    const auto tb = Clock::now();
    model.emplace(config);
    model->save_stencils(stencil_image);
    report.stencil_build_s = seconds_since(tb);
  }

  acasx::LogicTable table(config);
  const std::size_t num_points = table.num_grid_points();
  const std::size_t num_layers = table.num_tau_layers();
  constexpr std::size_t kQ = acasx::kNumAdvisories * acasx::kNumAdvisories;
  float* const q_base = table.raw().data();

  // Terminal layer (tau = 0): computed driver-side, identically to the
  // serial induction's first step.
  std::vector<float> v_prev(num_points * acasx::kNumAdvisories);
  std::vector<float> v_cur(v_prev.size());
  acasx::fill_pair_terminal_layer(model->config(), v_prev);
  for (std::size_t g = 0; g < num_points; ++g) {
    for (std::size_t ra = 0; ra < acasx::kNumAdvisories; ++ra) {
      const float v = v_prev[g * acasx::kNumAdvisories + ra];
      for (std::size_t a = 0; a < acasx::kNumAdvisories; ++a) {
        q_base[(g * acasx::kNumAdvisories + ra) * acasx::kNumAdvisories + a] = v;
      }
    }
  }

  std::vector<SolveWorker> fleet;
  if (options.num_workers > 1 && num_layers > 1) {
    fleet = spawn_solve_fleet(options.num_workers, options, MsgType::kPairSolveSetup,
                              stencil_image, report);
  }

  // Tau layers are sequential: per layer, broadcast v_prev and shard the
  // grid sweep into one contiguous slice per live worker.  Any slice a
  // worker fails to return is recomputed in-process with the identical
  // kernel, so the assembled layer never depends on fleet health.
  for (std::size_t tau = 1; tau < num_layers; ++tau) {
    float* const q_layer = q_base + tau * num_points * kQ;

    struct Slice {
      std::size_t begin, end;
      bool done = false;
    };
    std::vector<Slice> slices;
    std::vector<SolveWorker*> live;
    for (SolveWorker& w : fleet) {
      if (w.proc.alive()) live.push_back(&w);
    }
    const std::size_t shards = live.empty() ? 1 : live.size();
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = s * num_points / shards;
      const std::size_t end = (s + 1) * num_points / shards;
      if (begin < end) slices.push_back({begin, end});
    }

    // Issue one slice per worker.
    for (std::size_t s = 0; s < slices.size() && !live.empty(); ++s) {
      SolveWorker& w = *live[s % live.size()];
      if (!w.proc.alive()) continue;
      ByteWriter out;
      out.u64(slices[s].begin);
      out.u64(slices[s].end);
      out.array<float>(v_prev);
      try {
        write_frame(w.proc.in_fd(), MsgType::kPairSweep, out.bytes());
        w.job = s;
      } catch (const ProtocolError&) {
        w.proc.kill();
        report.degraded = true;
      }
    }

    // Collect: per-layer barrier, one response per issued slice.
    for (SolveWorker* wp : live) {
      SolveWorker& w = *wp;
      if (!w.proc.alive() || !w.job.has_value()) continue;
      const std::size_t s = *w.job;
      w.job.reset();
      try {
        std::optional<Frame> frame = read_frame(w.proc.out_fd());
        if (!frame.has_value() || frame->type != MsgType::kPairSweepResult) {
          throw ProtocolError("worker lost mid-sweep");
        }
        ByteReader in(frame->payload);
        const std::uint64_t begin = in.u64();
        const std::uint64_t end = in.u64();
        const std::vector<float> q = in.array<float>();
        const std::vector<float> v = in.array<float>();
        in.expect_end();
        if (begin != slices[s].begin || end != slices[s].end ||
            q.size() != (end - begin) * kQ ||
            v.size() != (end - begin) * acasx::kNumAdvisories) {
          throw ProtocolError("sweep result shape mismatch");
        }
        std::memcpy(q_layer + begin * kQ, q.data(), q.size() * sizeof(float));
        std::memcpy(v_cur.data() + begin * acasx::kNumAdvisories, v.data(),
                    v.size() * sizeof(float));
        slices[s].done = true;
        count_answer(w, report);
      } catch (const ProtocolError&) {
        w.proc.kill();
        report.degraded = true;
      }
    }

    // In-process fallback for anything unissued or lost.
    for (const Slice& slice : slices) {
      if (slice.done) continue;
      if (!fleet.empty()) ++report.requeues;  // lost or unissuable shard
      acasx::sweep_pair_layer_range(model->config(), model->stencils(), v_prev, slice.begin,
                                    slice.end, q_layer + slice.begin * kQ,
                                    v_cur.data() + slice.begin * acasx::kNumAdvisories);
    }
    v_prev.swap(v_cur);
  }

  for (SolveWorker& w : fleet) w.proc.shutdown();
  if (report_out != nullptr) {
    report.wall_s = seconds_since(t0);
    *report_out = report;
  }
  return table;
}

acasx::JointLogicTable solve_joint_table_sharded(const acasx::JointConfig& config,
                                                 const std::string& stencil_image,
                                                 const SolveDriverOptions& options,
                                                 ShardedSolveReport* report_out) {
  ::signal(SIGPIPE, SIG_IGN);
  const auto t0 = Clock::now();
  ShardedSolveReport report;

  std::optional<acasx::JointOfflineSolver> solver;  // stale images as above
  try {
    solver.emplace(acasx::JointOfflineSolver::open_stencils(stencil_image));
    if (!same_joint_config(solver->config(), config)) solver.reset();
  } catch (const serving::TableIoError& e) {
    if (!stale_cache(e)) throw;
  }
  if (!solver.has_value()) {
    const auto tb = Clock::now();
    solver.emplace(config);
    solver->save_stencils(stencil_image);
    report.stencil_build_s = seconds_since(tb);
  }

  acasx::JointLogicTable table(config);
  const std::size_t slab_floats = table.num_tau_layers() * table.num_grid_points() *
                                  acasx::kNumAdvisories * acasx::kNumAdvisories;
  const std::span<float> q{table.raw()};

  // Work units: every (delta bin, sense class) slab, handed out
  // dynamically (slabs are independent, so order does not matter — each
  // lands at its own fixed offset).
  struct SlabJob {
    std::size_t delta_bin;
    acasx::SecondarySense sense;
    std::size_t slab;  ///< table slab index
  };
  std::vector<SlabJob> jobs;
  for (std::size_t db = 0; db < config.secondary.num_delta_bins; ++db) {
    for (std::size_t s = 0; s < acasx::kNumSecondarySenses; ++s) {
      const auto sense = static_cast<acasx::SecondarySense>(s);
      jobs.push_back({db, sense, config.slab_index(db, sense)});
    }
  }
  std::deque<std::size_t> queue;
  for (std::size_t j = 0; j < jobs.size(); ++j) queue.push_back(j);
  std::vector<bool> done(jobs.size(), false);
  std::size_t completed = 0;

  std::vector<SolveWorker> fleet;
  if (options.num_workers > 1 && jobs.size() > 1) {
    fleet = spawn_solve_fleet(std::min(options.num_workers, jobs.size()), options,
                              MsgType::kJointSolveSetup, stencil_image, report);
  }

  auto assign = [&](SolveWorker& w) {
    if (queue.empty() || !w.proc.alive()) return;
    const std::size_t j = queue.front();
    ByteWriter out;
    out.u64(jobs[j].delta_bin);
    out.u32(static_cast<std::uint32_t>(jobs[j].sense));
    try {
      write_frame(w.proc.in_fd(), MsgType::kJointSlab, out.bytes());
      queue.pop_front();
      w.job = j;
    } catch (const ProtocolError&) {
      w.proc.kill();
      report.degraded = true;
    }
  };
  auto lose = [&](SolveWorker& w) {
    if (w.job.has_value()) {
      queue.push_front(*w.job);
      ++report.requeues;
      w.job.reset();
    }
    w.proc.kill();
    report.degraded = true;
  };

  for (SolveWorker& w : fleet) assign(w);

  while (completed < jobs.size()) {
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> fd_slot;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (fleet[i].proc.alive() && fleet[i].job.has_value()) {
        fds.push_back({fleet[i].proc.out_fd(), POLLIN, 0});
        fd_slot.push_back(i);
      }
    }
    if (fds.empty()) break;  // nothing in flight: drain the queue in-process

    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      SolveWorker& w = fleet[fd_slot[k]];
      try {
        std::optional<Frame> frame = read_frame(w.proc.out_fd());
        if (!frame.has_value() || frame->type != MsgType::kJointSlabResult) {
          throw ProtocolError("worker lost mid-slab");
        }
        const std::size_t j = w.job.value();
        ByteReader in(frame->payload);
        const std::uint64_t delta_bin = in.u64();
        const std::uint32_t sense_raw = in.u32();
        const std::vector<float> slab = in.array<float>();
        in.expect_end();
        if (delta_bin != jobs[j].delta_bin ||
            sense_raw != static_cast<std::uint32_t>(jobs[j].sense) ||
            slab.size() != slab_floats) {
          throw ProtocolError("slab result shape mismatch");
        }
        std::memcpy(q.subspan(jobs[j].slab * slab_floats, slab_floats).data(), slab.data(),
                    slab_floats * sizeof(float));
        done[j] = true;
        ++completed;
        w.job.reset();
        count_answer(w, report);
        assign(w);
      } catch (const ProtocolError&) {
        lose(w);
      }
    }
  }

  for (SolveWorker& w : fleet) {
    if (w.job.has_value()) lose(w);  // poll-failure exit path
    w.proc.shutdown();
  }

  // In-process drain: same per-slab kernel, bit-identical output.
  while (!queue.empty()) {
    const std::size_t j = queue.front();
    queue.pop_front();
    if (done[j]) continue;
    acasx::solve_joint_slab(config, solver->sense_stencils(jobs[j].sense), jobs[j].delta_bin,
                            jobs[j].sense, nullptr,
                            q.subspan(jobs[j].slab * slab_floats, slab_floats));
    done[j] = true;
    ++completed;
  }
  expect(completed == jobs.size(), "every joint slab solved");

  if (report_out != nullptr) {
    report.wall_s = seconds_since(t0);
    *report_out = report;
  }
  return table;
}

}  // namespace cav::dist

#include "simmpi/runtime.hpp"

#include <exception>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "simmpi/scheduler.hpp"

namespace ftmr::simmpi {

JobResult Runtime::run(int nranks, const RankMain& main, JobOptions opts) {
  auto job = std::make_unique<Job>(nranks, std::move(opts));

  // World communicator: ctx 0, identity group.
  std::vector<int> identity(static_cast<size_t>(nranks));
  for (int i = 0; i < nranks; ++i) identity[static_cast<size_t>(i)] = i;
  auto world_state = std::make_shared<CommState>(0, std::move(identity), true);
  {
    MutexLock lock(job->mu);
    job->comms[0] = world_state;
  }

  // One fiber per rank, multiplexed over a small worker pool. The on_switch
  // hook keeps log-line rank attribution correct as workers hop between
  // fibers. Publication of job->sched is ordered by worker-thread creation.
  Scheduler::Options so;
  so.workers = job->opts.worker_threads;
  so.stack_bytes = job->opts.fiber_stack_bytes;
  so.deadline_s = job->opts.deadlock_timeout_s;
  so.on_switch = [](int tag) { set_thread_rank(tag); };
  Scheduler sched(so);
  job->sched = &sched;

  Job* jp = job.get();
  for (int r = 0; r < nranks; ++r) {
    sched.add_fiber(
        [jp, &main, world_state, r] {
          Comm world(jp, world_state, r);
          try {
            main(world);
            MutexLock lock(jp->mu);
            jp->ranks[r].finished = true;
            lock.unlock();
            // A finishing rank wakes peers blocked on it (they will error
            // out per MPI semantics rather than hang silently).
            jp->wake_all();
          } catch (const KilledError&) {
            // die_locked already updated state and woke everyone.
          } catch (const AbortError& e) {
            {
              MutexLock lock(jp->mu);
              jp->ranks[r].exit_code = e.exit_code;
            }
            jp->wake_all();
          } catch (const std::exception& e) {
            FTMR_ERROR << "rank " << r << " escaped exception: " << e.what();
            jp->wake_all();
          } catch (...) {
            // Non-std exceptions (e.g. a FailureDetected escaping user
            // recovery code) must not std::terminate the whole simulator
            // process: the rank is left neither finished nor killed, which
            // downstream correctness checks flag as an anomaly.
            FTMR_ERROR << "rank " << r << " escaped non-standard exception";
            jp->wake_all();
          }
        },
        r);
  }
  sched.run_until_done();
  job->sched = nullptr;

  JobResult result;
  {
    MutexLock lock(job->mu);
    result.aborted = job->aborted;
    result.abort_code = job->abort_code;
    result.ranks.resize(nranks);
    for (int r = 0; r < nranks; ++r) {
      const RankState& st = job->ranks[r];
      result.ranks[r] =
          RankResult{st.finished, st.killed, st.vtime, st.exit_code, st.op_count};
    }
  }
  return result;
}

}  // namespace ftmr::simmpi

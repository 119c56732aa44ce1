#include "simmpi/job.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace ftmr::simmpi {

Job::Job(int nranks_, JobOptions opts_)
    : nranks(nranks_), opts(std::move(opts_)), recv_ch(nranks_), ranks(nranks_) {
  inboxes.reserve(static_cast<size_t>(nranks_));
  for (int i = 0; i < nranks_; ++i) {
    inboxes.push_back(std::make_unique<Inbox>());
  }
  for (const KillEvent& k : opts.kills) {
    if (k.rank < 0 || k.rank >= nranks) continue;
    if (k.vtime >= 0.0) ranks[k.rank].kill_vtime = k.vtime;
    if (k.after_ops >= 0) ranks[k.rank].kill_after_ops = k.after_ops;
  }
}

void Job::die_locked(int rank) {
  RankState& st = ranks[rank];
  if (!st.alive) return;
  st.alive = false;
  st.killed = true;
  // Runs under mu: the hook's effects (e.g. wiping the rank's replica
  // memory) are atomic with the death itself, so no peer can observe a
  // dead rank with live replicas. The hook must not re-enter simmpi.
  if (opts.on_rank_death) opts.on_rank_death(rank);
  // A contributor that dies before picking up never will: settle its share
  // of every pending slot so the last live pickup still erases it. Only the
  // few in-flight slots are visited, and deaths are rare.
  for (auto it = slots.begin(); it != slots.end();) {
    CollectiveSlot& slot = *it->second;
    const auto cit = comms.find(it->first.first);
    const int rel = cit == comms.end() ? -1 : cit->second->rel_rank_of(rank);
    if (rel >= 0 && slot.contribs.count(rel) != 0 && --slot.unpicked == 0 &&
        slot.computed) {
      it = slots.erase(it);
    } else {
      ++it;
    }
  }
  // Death can unblock any predicate (recv from the dead rank, collective
  // membership, tolerant-collective failure observation): broadcast.
  wake_all();
}

void Job::pick_up_locked(const std::pair<uint64_t, uint64_t>& key,
                         CollectiveSlot& slot, int rel) {
  slot.contribs.erase(rel);
  slot.results.erase(rel);
  slot.done_vtime.erase(rel);
  if (--slot.unpicked == 0) slots.erase(key);
}

void Job::check_callable(int rank) {
  MutexLock lock(mu);
  RankState& st = ranks[rank];
  if (aborted) throw AbortError(abort_code);
  if (!st.alive) throw KilledError();
  if (st.uncounted_depth == 0) st.op_count++;
  if (st.kill_after_ops >= 0 && st.op_count >= st.kill_after_ops) {
    die_locked(rank);
    throw KilledError();
  }
  if (st.kill_vtime >= 0.0 && st.vtime >= st.kill_vtime) {
    die_locked(rank);
    throw KilledError();
  }
}

void Job::check_callable_locked(int rank) {
  RankState& st = ranks[rank];
  if (aborted) throw AbortError(abort_code);
  if (!st.alive) throw KilledError();
}

void Job::check_vtime_kill(int rank) {
  MutexLock lock(mu);
  RankState& st = ranks[rank];
  if (!st.alive) throw KilledError();
  if (st.kill_vtime >= 0.0 && st.vtime >= st.kill_vtime) {
    die_locked(rank);
    throw KilledError();
  }
}

std::vector<int> Job::dead_in_locked(const CommState& cs) const {
  std::vector<int> dead;
  for (int g : cs.group) {
    if (!ranks[g].alive) dead.push_back(g);
  }
  return dead;
}

bool Job::any_dead_in_locked(const CommState& cs) const {
  return std::any_of(cs.group.begin(), cs.group.end(),
                     [this](int g) { return !ranks[g].alive; });
}

std::vector<int> Job::unacked_dead_locked(int rank, const CommState& cs) const {
  std::vector<int> dead = dead_in_locked(cs);
  auto it = ranks[rank].acked.find(cs.ctx);
  if (it == ranks[rank].acked.end()) return dead;
  std::vector<int> out;
  for (int g : dead) {
    if (std::find(it->second.begin(), it->second.end(), g) == it->second.end()) {
      out.push_back(g);
    }
  }
  return out;
}

void Job::abort_job(int code) {
  MutexLock lock(mu);
  if (!aborted) {
    aborted = true;
    abort_code = code;
  }
  wake_all();
}

bool Job::wait_blocked(WaitChannel& ch) {
  if (sched == nullptr || Scheduler::current() == nullptr) {
    std::fputs("simmpi: fatal: Job::wait_blocked called off a scheduler fiber\n",
               stderr);
    std::abort();
  }
  return sched->park(ch, mu);
}

void Job::wake_channel(WaitChannel& ch) {
  if (sched != nullptr) sched->wake(ch);
}

void Job::wake_all() {
  if (sched != nullptr) sched->wake_all_parked();
}

}  // namespace ftmr::simmpi

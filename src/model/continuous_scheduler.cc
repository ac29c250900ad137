#include "model/continuous_scheduler.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "common/env.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/watchdog.hh"

namespace mokey
{

ContinuousScheduler::ContinuousScheduler(
    const QuantizedTransformer &eng, QuantMode m,
    ContinuousSchedulerConfig c)
    : ContinuousScheduler(
          [&eng](size_t layer, const Tensor &stacked,
                 const std::vector<size_t> &starts, QuantMode mode,
                 Lane ln) {
              return eng.forwardStep(layer, stacked, starts, mode, ln);
          },
          eng.stepCount(), m, c)
{
}

ContinuousScheduler::ContinuousScheduler(StepForwardFn fn,
                                         size_t steps, QuantMode m,
                                         ContinuousSchedulerConfig c)
    : step(std::move(fn)), nSteps(steps), mode(m), cfg(c)
{
    MOKEY_ASSERT(static_cast<bool>(step),
                 "scheduler needs a step function");
    MOKEY_ASSERT(nSteps >= 1, "step count must be >= 1");
    MOKEY_ASSERT(cfg.maxBatch >= 1, "maxBatch must be >= 1");
    cfg.chunkTokens = envSize("MOKEY_CHUNK_TOKENS", cfg.chunkTokens);
    cfg.decodePriority =
        envFlag("MOKEY_DECODE_PRIORITY", cfg.decodePriority);
    MOKEY_ASSERT(cfg.decodeTokens >= 1, "decodeTokens must be >= 1");
    MOKEY_ASSERT(cfg.chunkTokens >= 1, "chunkTokens must be >= 1");
    lane = Lane::acquire();
    stepper = std::thread([this] { stepLoop(); });
}

ContinuousScheduler::~ContinuousScheduler()
{
    stop();
}

void
ContinuousScheduler::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
        if (joinedFlag)
            return;
        joinedFlag = true;
    }
    cvWork.notify_all();
    stepper.join();
}

bool
ContinuousScheduler::enqueue(Pending &&req)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        if (stopping || req.input.rows() == 0) {
            ++st.rejected;
            return false;
        }
        queue.push_back(std::move(req));
        ++st.requests;
    }
    cvWork.notify_all();
    return true;
}

std::future<Tensor>
ContinuousScheduler::submit(Tensor input, Deadline deadline)
{
    const bool empty = input.rows() == 0;
    Pending req{std::move(input), {}, nullptr, deadline};
    std::future<Tensor> fut = req.result.get_future();
    if (!enqueue(std::move(req))) {
        req.result.set_exception(std::make_exception_ptr(
            std::runtime_error(
                empty ? "ContinuousScheduler: empty request"
                      : "ContinuousScheduler: submit() on a stopped "
                        "scheduler")));
    }
    return fut;
}

bool
ContinuousScheduler::submit(Tensor input, BatchCompletion done,
                            Deadline deadline)
{
    MOKEY_ASSERT(static_cast<bool>(done),
                 "callback submit needs a callback");
    Pending req{std::move(input), {}, std::move(done), deadline};
    return enqueue(std::move(req));
}

void
ContinuousScheduler::drain()
{
    std::unique_lock<std::mutex> lk(mu);
    cvDone.wait(lk, [this] {
        return queue.empty() && active.empty() && resolving == 0;
    });
}

size_t
ContinuousScheduler::queueDepth() const
{
    std::lock_guard<std::mutex> lk(mu);
    return queue.size() + active.size() + resolving;
}

double
ContinuousScheduler::recentBatchSeconds() const
{
    std::lock_guard<std::mutex> lk(mu);
    return recentPass;
}

ContinuousSchedulerStats
ContinuousScheduler::stats() const
{
    std::lock_guard<std::mutex> lk(mu);
    return st;
}

void
ContinuousScheduler::finish(Active &a, Tensor &&out,
                            const std::exception_ptr &err)
{
    // A broken promise or a throwing callback is the caller's bug
    // and must not take the step thread (and every other active
    // request) down with it.
    try {
        if (a.done) {
            a.done(std::move(out), err);
        } else if (err) {
            a.result.set_exception(err);
        } else {
            a.result.set_value(std::move(out));
        }
    } catch (const std::exception &e) {
        warn("ContinuousScheduler: completion failed: %s", e.what());
    } catch (...) {
        warn("ContinuousScheduler: completion failed");
    }
}

void
ContinuousScheduler::finishPending(Pending &p,
                                   const std::exception_ptr &err)
{
    try {
        if (p.done)
            p.done(Tensor{}, err);
        else
            p.result.set_exception(err);
    } catch (const std::exception &e) {
        warn("ContinuousScheduler: completion failed: %s", e.what());
    } catch (...) {
        warn("ContinuousScheduler: completion failed");
    }
}

std::vector<std::list<ContinuousScheduler::Active>::iterator>
ContinuousScheduler::pickClass(bool decodeClass, size_t budget,
                               uint64_t &deferred)
{
    // Admission order is list order: joins always push_back.
    std::vector<std::list<Active>::iterator> sel;
    size_t rowsTaken = 0;
    for (auto it = active.begin(); it != active.end(); ++it) {
        if (it->decode != decodeClass)
            continue;
        const size_t r = it->x.rows();
        // At least one member of the class always advances —
        // the budget meters extra work, it never starves.
        if (!sel.empty() && rowsTaken + r > budget) {
            ++deferred;
            continue;
        }
        rowsTaken += r;
        sel.push_back(it);
    }
    return sel;
}

void
ContinuousScheduler::runGroup(
    const std::vector<std::list<Active>::iterator> &grp, Lane ln,
    bool decodeClass,
    std::vector<std::list<Active>::iterator> &finished,
    std::vector<std::list<Active>::iterator> &failed,
    std::vector<std::exception_ptr> &failures)
{
    const size_t layer = grp.front()->layer;

    // A step must hand back exactly the rows it was given; any other
    // shape fails like a throw instead of being sliced out of bounds.
    auto checkedStep = [&](const Tensor &in,
                           const std::vector<size_t> &starts) {
        Tensor out = step(layer, in, starts, mode, ln);
        if (out.rows() != in.rows() || out.cols() != in.cols())
            throw std::runtime_error(
                "ContinuousScheduler: step returned the wrong shape");
        return out;
    };

    // Advance one member by one layer; true on success.
    auto stepOne = [&](std::list<Active>::iterator it,
                       std::exception_ptr &err) {
        try {
            it->x = checkedStep(it->x, {0, it->x.rows()});
            return true;
        } catch (...) {
            err = std::current_exception();
            return false;
        }
    };

    bool groupOk = true;
    if (grp.size() == 1) {
        std::exception_ptr err;
        if (!stepOne(grp.front(), err)) {
            failed.push_back(grp.front());
            failures.push_back(err);
            groupOk = false;
        }
    } else {
        // Stack the group's rows and advance them in one step call.
        const size_t cols = grp.front()->x.cols();
        std::vector<size_t> starts{0};
        size_t total = 0;
        for (const auto &it : grp) {
            total += it->x.rows();
            starts.push_back(total);
        }
        Tensor stacked(total, cols);
        for (size_t i = 0; i < grp.size(); ++i)
            std::memcpy(stacked.row(starts[i]), grp[i]->x.data(),
                        grp[i]->x.rows() * cols * sizeof(float));
        Tensor out;
        bool ok = true;
        try {
            out = checkedStep(stacked, starts);
        } catch (...) {
            ok = false;
        }
        if (ok) {
            for (size_t i = 0; i < grp.size(); ++i) {
                const size_t r = grp[i]->x.rows();
                Tensor slice(r, cols);
                std::memcpy(slice.data(), out.row(starts[i]),
                            r * cols * sizeof(float));
                grp[i]->x = std::move(slice);
            }
        } else {
            // Poison isolation: the group threw, but usually only
            // one request is poisoned. Retry each member alone so
            // only the actual thrower(s) observe the failure and
            // everyone else keeps stepping.
            groupOk = false;
            for (const auto &it : grp) {
                ++tally.isolationRetries;
                std::exception_ptr err;
                if (stepOne(it, err)) {
                    ++it->layer;
                    if (it->layer == nSteps)
                        finished.push_back(it);
                } else {
                    failed.push_back(it);
                    failures.push_back(err);
                }
            }
        }
    }

    if (groupOk) {
        for (const auto &it : grp) {
            ++it->layer;
            if (it->layer == nSteps)
                finished.push_back(it);
        }
    }

    ++tally.steps;
    if (decodeClass)
        ++tally.decodeSteps;
    else
        ++tally.prefillSteps;
    for (const auto &it : grp)
        tally.stepRows += it->x.rows();
}

void
ContinuousScheduler::stepLoop()
{
    Watchdog::Task wdt =
        Watchdog::instance().monitor("continuous-scheduler");
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        wdt.idle();
        cvWork.wait(lk, [this] {
            return stopping || !queue.empty() || !active.empty();
        });
        wdt.beat();
        if (queue.empty() && active.empty()) {
            if (stopping)
                return;
            continue; // spurious wake
        }

        // Join: arrivals enter the running batch at layer 0, FIFO,
        // up to maxBatch co-resident requests. This happens between
        // steps — never mid-step — so every step sees a consistent
        // batch. Shutdown still flushes the queue (stopping only
        // gates NEW submissions, in enqueue()). Requests whose
        // deadline already passed while queued are dropped here —
        // even when the batch is full, so a backlog of doomed work
        // can't wedge behind the maxBatch cap.
        const auto joinNow = std::chrono::steady_clock::now();
        std::vector<Pending> expiredQueued;
        while (!queue.empty()) {
            if (queue.front().deadline <= joinNow) {
                ++st.expiredRequests;
                expiredQueued.push_back(std::move(queue.front()));
                queue.pop_front();
                continue;
            }
            if (active.size() >= cfg.maxBatch)
                break;
            Pending p = std::move(queue.front());
            queue.pop_front();
            Active a;
            a.x = std::move(p.input);
            a.layer = 0;
            a.decode = cfg.decodePriority &&
                       a.x.rows() <= cfg.decodeMaxRows;
            a.result = std::move(p.result);
            a.done = std::move(p.done);
            a.deadline = p.deadline;
            a.admitted = joinNow;
            ++st.joins;
            active.push_back(std::move(a));
        }

        // Expire mid-flight: a running request whose deadline passed
        // between iterations leaves NOW and frees its batch slot —
        // continuing a pass the client already abandoned would only
        // steal engine time from live requests. Splicing to a local
        // list removes the member from the running batch while
        // keeping it alive for its (unlocked) completion below.
        std::list<Active> expiredActive;
        for (auto it = active.begin(); it != active.end();) {
            auto cur = it++;
            if (cur->deadline <= joinNow) {
                ++st.expiredRequests;
                expiredActive.splice(expiredActive.end(), active,
                                     cur);
            }
        }
        // Expired requests left queue/active above but their
        // completions run unlocked below; drain() must not return
        // until those have fired.
        resolving += expiredQueued.size() + expiredActive.size();
        ++st.iterations;

        // Schedule this iteration: decode class first (priority),
        // then prefill under its chunk budget.
        uint64_t deferredDecode = 0, deferredPrefill = 0;
        const auto decodeSel =
            pickClass(true, cfg.decodeTokens, deferredDecode);
        const auto prefillSel =
            pickClass(false, cfg.chunkTokens, deferredPrefill);
        st.prefillDeferrals += deferredPrefill;

        // Group co-layer members so each group is one step call.
        // Deeper layers run first within a class: requests closest
        // to completion finish soonest and free their batch slot.
        auto grouped = [](const std::vector<
                           std::list<Active>::iterator> &sel) {
            std::map<size_t,
                     std::vector<std::list<Active>::iterator>,
                     std::greater<size_t>>
                g;
            for (const auto &it : sel)
                g[it->layer].push_back(it);
            return g;
        };
        const auto prefillGroups = grouped(prefillSel);

        // Step outside the lock: submits keep landing while the
        // engine runs. The step thread is the only mutator of
        // `active` membership and payloads, so unlocked access to
        // the selected members is safe.
        lk.unlock();
        if (!expiredQueued.empty() || !expiredActive.empty()) {
            const auto err =
                std::make_exception_ptr(DeadlineExpired());
            for (Pending &p : expiredQueued)
                finishPending(p, err);
            for (Active &a : expiredActive)
                finish(a, Tensor{}, err);
        }
        faultDelayPoint(FaultSite::SchedDelay);
        tally = {};
        std::vector<std::list<Active>::iterator> finished, failed;
        std::vector<std::list<Active>::iterator> expiredMid;
        std::vector<std::exception_ptr> failures;

        // Decode class runs to COMPLETION within the iteration: its
        // rows are cheap (bounded by decodeTokens) and a short
        // request gains nothing from pacing itself layer-for-layer
        // against a long prefill. This is what caps a decode's
        // head-of-line wait at the one in-flight step plus its own
        // service time, instead of the prefill's whole pass.
        auto remaining = decodeSel;
        while (!remaining.empty()) {
            wdt.beat();
            for (const auto &g : grouped(remaining))
                runGroup(g.second, lane, true, finished, failed,
                         failures);
            std::vector<std::list<Active>::iterator> next;
            const auto roundNow = std::chrono::steady_clock::now();
            for (const auto &it : remaining) {
                if (it->layer >= nSteps)
                    continue;
                bool dead = false;
                for (const auto &f : failed)
                    if (f == it) {
                        dead = true;
                        break;
                    }
                if (dead)
                    continue;
                // Deadline check between layer steps: a decode that
                // expired mid-run stops here, partway through its
                // pass, rather than finishing layers nobody reads.
                if (it->deadline <= roundNow) {
                    expiredMid.push_back(it);
                    continue;
                }
                next.push_back(it);
            }
            remaining = std::move(next);
        }

        // Prefill advances exactly one budgeted layer slice, then
        // yields the next iteration to fresh decodes.
        for (const auto &g : prefillGroups)
            runGroup(g.second, lane, false, finished, failed,
                     failures);
        const auto doneAt = std::chrono::steady_clock::now();

        // Leave: resolve finished, poisoned, and expired requests
        // (callbacks run unlocked), then drop them from the batch.
        for (const auto &it : finished)
            finish(*it, std::move(it->x), nullptr);
        for (size_t i = 0; i < failed.size(); ++i)
            finish(*failed[i], Tensor{}, failures[i]);
        if (!expiredMid.empty()) {
            const auto err =
                std::make_exception_ptr(DeadlineExpired());
            for (const auto &it : expiredMid)
                finish(*it, Tensor{}, err);
        }
        lk.lock();
        resolving -= expiredQueued.size() + expiredActive.size();
        st.steps += tally.steps;
        st.decodeSteps += tally.decodeSteps;
        st.prefillSteps += tally.prefillSteps;
        st.stepRows += tally.stepRows;
        st.isolationRetries += tally.isolationRetries;
        st.completed += finished.size();
        st.failedRequests += failed.size();
        st.expiredRequests += expiredMid.size();
        // Service-time EWMA over finished requests: a decode runs
        // its whole pass inside one iteration, so per-iteration step
        // time x layer count would overstate it up to nSteps-fold.
        for (const auto &it : finished) {
            const double pass =
                std::chrono::duration<double>(doneAt - it->admitted)
                    .count();
            recentPass = recentPass == 0
                             ? pass
                             : 0.75 * recentPass + 0.25 * pass;
            active.erase(it);
        }
        for (const auto &it : failed)
            active.erase(it);
        for (const auto &it : expiredMid)
            active.erase(it);
        cvDone.notify_all();
    }
}

} // namespace mokey

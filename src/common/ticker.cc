#include "common/ticker.hh"

#include <cassert>
#include <stdexcept>
#include <string>

#include "state/snapshot.hh"

namespace ich
{

Ticker::~Ticker()
{
    // Pending group events capture raw Group pointers; never leave one
    // behind in an EventQueue that may keep running.
    for (auto &g : groups_)
        if (g->event != EventQueue::kInvalidEvent)
            eq_.deschedule(g->event);
}

Time
Ticker::firstDueAfter(const TickRate &rate, Time now)
{
    if (rate.phase > now)
        return rate.phase;
    // Smallest phase + k*period strictly after now.
    Time elapsed = now - rate.phase;
    return rate.phase + (elapsed / rate.period + 1) * rate.period;
}

Ticker::Group &
Ticker::groupFor(TickRate rate)
{
    for (auto &g : groups_)
        if (g->rate == rate)
            return *g;
    groups_.push_back(std::make_unique<Group>());
    groups_.back()->rate = rate;
    return *groups_.back();
}

void
Ticker::add(Clocked &c, TickRate rate, Ownership own)
{
    if (rate.period == 0)
        throw std::invalid_argument("Ticker: zero tick period");
    Group &g = groupFor(rate);
    bool was_idle = g.event == EventQueue::kInvalidEvent;
    g.members.push_back(Member{&c, own, firstDueAfter(rate, eq_.now())});
    // An idle group arms on its first member; while the group is
    // dispatching, fireGroup() re-arms after the pass instead.
    if (was_idle && !g.dispatching) {
        g.nextDue = firstDueAfter(rate, eq_.now());
        armGroup(g);
    }
}

void
Ticker::remove(Clocked &c)
{
    for (auto &gp : groups_) {
        Group &g = *gp;
        for (std::size_t i = 0; i < g.members.size(); ++i) {
            if (g.members[i].clocked != &c)
                continue;
            if (g.dispatching) {
                g.members[i].clocked = nullptr; // skipped for this pass
                g.hasHoles = true;
            } else {
                g.members.erase(g.members.begin() +
                                static_cast<std::ptrdiff_t>(i));
                if (g.members.empty()) {
                    if (g.event != EventQueue::kInvalidEvent)
                        eq_.deschedule(g.event);
                    // Drop the group: lingering empty groups would
                    // desync the save/restore group-count match.
                    pruneGroup(&g);
                }
            }
            return;
        }
    }
}

bool
Ticker::contains(const Clocked &c) const
{
    for (const auto &g : groups_)
        for (const Member &m : g->members)
            if (m.clocked == &c)
                return true;
    return false;
}

std::size_t
Ticker::memberCount() const
{
    std::size_t n = 0;
    for (const auto &g : groups_)
        for (const Member &m : g->members)
            if (m.clocked != nullptr)
                ++n;
    return n;
}

void
Ticker::armGroup(Group &g)
{
    Group *gp = &g;
    g.event = eq_.scheduleChecked(
        g.nextDue, [this, gp] { fireGroup(*gp); }, g.rate.priority);
    pumpIndexDirty_ = true;
}

inline bool
Ticker::runMembers(Group &g)
{
    g.dispatching = true;
    Time now = eq_.now();
    // Fixed bound: members added during the pass tick next period.
    const std::size_t count = g.members.size();
    for (std::size_t i = 0; i < count; ++i) {
        const Member &m = g.members[i];
        if (m.clocked != nullptr && now >= m.minDue) {
            ++ticks_;
            m.clocked->tick(now);
        }
    }
    g.dispatching = false;
    if (g.hasHoles) {
        g.hasHoles = false;
        std::size_t w = 0;
        for (std::size_t i = 0; i < g.members.size(); ++i)
            if (g.members[i].clocked != nullptr)
                g.members[w++] = g.members[i];
        g.members.resize(w);
    }
    return !g.members.empty();
}

void
Ticker::fireGroup(Group &g)
{
    g.event = EventQueue::kInvalidEvent;
    if (!runMembers(g)) {
        pruneGroup(&g); // frees g — must be the last use
        return;
    }
    g.nextDue += g.rate.period;
    armGroup(g);
}

std::uint64_t
Ticker::fireGroupInline(Group &g, Time until)
{
    // Mirror of fireGroup() for the fast-forward pump: the group's
    // event is still in the heap (never popped), so g.event stays
    // valid through the pass. add() during the pass then sees the
    // group as armed and skips arming — the same outcome fireGroup()'s
    // dispatching guard produces — and the new member still first
    // ticks on the next period via its minDue.
    for (std::uint64_t fires = 1;; ++fires) {
        // Advance the clock and credit the fire before dispatch,
        // matching runOne()'s now_/executed_ updates.
        eq_.creditInlineEvent(g.nextDue);
        if (!runMembers(g)) {
            // The popped path had already consumed the event; here it
            // is still pending and must be cancelled explicitly.
            eq_.deschedule(g.event);
            pruneGroup(&g); // frees g — must be the last use
            return fires;
        }
        g.nextDue += g.rate.period;
        // Retarget the pending event in place. reschedule() assigns a
        // fresh insertion sequence *after* member dispatch — exactly
        // the sequence armGroup()'s schedule() would have burned — so
        // the (time, priority, seq) ordering of everything members
        // scheduled is identical to the stepped path.
        if (!eq_.reschedule(g.event, g.nextDue)) {
            armGroup(g);
            return fires;
        }
        // Still the head and inside the span: fastForward() would pick
        // this group next, so fire it again without the peek.
        if (g.nextDue > until || !eq_.isHead(g.event))
            return fires;
    }
}

std::uint64_t
Ticker::fastForward(Time until)
{
    std::uint64_t fires = 0;
    for (;;) {
        Time when;
        EventId head;
        if (!eq_.peekNext(when, head) || when > until)
            break;
        // Re-check per iteration: an inline fire that empties or
        // re-arms a group (reschedule to a past slot, transient churn)
        // invalidates the index mid-span.
        if (pumpIndexDirty_) {
            pumpIndex_.assign(pumpIndex_.size(), nullptr);
            for (auto &gp : groups_) {
                if (gp->event == EventQueue::kInvalidEvent)
                    continue;
                std::uint32_t s = EventQueue::slotIndex(gp->event);
                if (s >= pumpIndex_.size())
                    pumpIndex_.resize(s + 1, nullptr);
                pumpIndex_[s] = gp.get();
            }
            pumpIndexDirty_ = false;
        }
        std::uint32_t slot = EventQueue::slotIndex(head);
        Group *g =
            slot < pumpIndex_.size() ? pumpIndex_[slot] : nullptr;
        // The handle check makes the hit authoritative: ids are
        // generation-tagged, so only the group that owns this pending
        // event can match. Anything else means a non-tick event holds
        // the head and the skip is suppressed.
        if (g == nullptr || g->event != head)
            break;
        assert(when == g->nextDue);
        fires += fireGroupInline(*g, until);
    }
    ffFires_ += fires;
    return fires;
}

Time
Ticker::nextGroupDue() const
{
    Time best = ~Time{0};
    for (const auto &g : groups_)
        if (g->event != EventQueue::kInvalidEvent && g->nextDue < best)
            best = g->nextDue;
    return best;
}

void
Ticker::pruneGroup(Group *g)
{
    pumpIndexDirty_ = true;
    for (auto it = groups_.begin(); it != groups_.end(); ++it) {
        if (it->get() == g) {
            groups_.erase(it);
            return;
        }
    }
}

void
Ticker::saveState(state::SaveContext &ctx) const
{
    state::ArchiveWriter &w = ctx.w();
    w.putU64(ticks_);
    w.putU32(static_cast<std::uint32_t>(groups_.size()));
    for (const auto &gp : groups_) {
        const Group &g = *gp;
        std::uint32_t live = 0;
        for (const Member &m : g.members) {
            if (m.clocked == nullptr)
                continue;
            if (m.own == Ownership::kTransient)
                throw state::ArchiveError(
                    "Ticker: transient member '" +
                    std::string(m.clocked->tickName()) +
                    "' still registered — detach samplers before "
                    "snapshotting");
            ++live;
        }
        w.putU64(g.rate.period);
        w.putU64(g.rate.phase);
        w.putI32(g.rate.priority);
        w.putU32(live);
        w.putU64(g.nextDue);
        ctx.putEvent(g.event);
    }
}

void
Ticker::restoreState(state::SectionReader &r, state::RestoreContext &ctx)
{
    ticks_ = r.getU64();
    if (r.getU32() != groups_.size())
        throw state::ArchiveError(
            "Ticker: rate-group count mismatch — persistent members must "
            "re-register at construction");
    for (auto &gp : groups_) {
        Group &g = *gp;
        TickRate rate;
        rate.period = r.getU64();
        rate.phase = r.getU64();
        rate.priority = r.getI32();
        if (!(rate == g.rate))
            throw state::ArchiveError("Ticker: rate-group key mismatch");
        if (r.getU32() != g.members.size())
            throw state::ArchiveError(
                "Ticker: member count mismatch in a rate group");
        g.nextDue = r.getU64();
        // Drop the event armed during construction; the saved group
        // clock re-arms at its original absolute time (deferred and
        // sequence-ordered by the RestoreContext).
        if (g.event != EventQueue::kInvalidEvent) {
            eq_.deschedule(g.event);
            g.event = EventQueue::kInvalidEvent;
        }
        Group *raw = &g;
        ctx.getEvent(r, [this, raw](EventQueue &eq, Time when,
                                    int priority) {
            raw->nextDue = when;
            raw->event = eq.schedule(
                when, [this, raw] { fireGroup(*raw); }, priority);
            pumpIndexDirty_ = true;
        });
    }
}

} // namespace ich

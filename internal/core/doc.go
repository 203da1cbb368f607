// Package core implements the message-passing (MP) computation model of
// Bokor et al., "Efficient Model Checking of Fault-Tolerant Distributed
// Protocols" (DSN 2011), Section II.
//
// A system consists of n processes communicating through unordered channels.
// A protocol defines, per process, a set of transitions. A transition can
// consume a set of messages from the incoming channels of its process (a
// quorum transition if the set may contain messages from more than one
// sender), change the local state of the process, and send messages — all in
// one indivisible step. The semantics is a state graph whose states are
// vectors of local states plus the multiset of in-flight messages.
//
// The package provides:
//
//   - the state representation (LocalState, Message, Bag, State) with
//     canonical, deterministic encoding used for stateful search;
//   - the transition representation (Transition) including the partial-order
//     reduction annotations of the paper's Table IV (priority, visibility,
//     reply flag, send specifications, peer restriction);
//   - enabled-event enumeration implementing exact quorum semantics
//     (Definition 2): an event is a pair (t, X) where X holds exactly
//     q_t messages of t's type from q_t distinct senders;
//   - execution of events with copy-on-write state construction.
//
// Everything in this package is deterministic: enumeration orders, state
// keys and event keys are stable across runs, which makes searches
// reproducible and state graphs comparable (the property behind the paper's
// Theorem 2 tests in package refine).
//
// Representation contracts the search hot path relies on:
//
//   - A Bag is a slice of distinct messages sorted by canonical key, each
//     with its key and multiplicity; the zero value is an empty bag. Each
//     and EachKey visit messages in ascending key order. Matching is one
//     linear pass grouped by ascending sender (Bag.MatchingBySender), and
//     the sender-set query (Bag.MatchingBySenderSet) allocates nothing
//     for process IDs below 64.
//   - Events returned by Enabled carry their messages' keys, so Execute
//     and Event.Key never re-encode a consumed message.
//   - A successor built by Execute copies every local key but the
//     executing process's from its parent's key, once the parent is
//     keyed. This relies on a LocalState never changing after Execute has
//     built a state from it: transitions mutate only the clone Ctx.Local.
package core

// Package simtime holds the repository-wide simulated-time comparison
// tolerance. Simulated instants are derived float64 arithmetic (token
// refills, batch-window closes, backoff sums), so "due at t" checks must
// absorb the last-ulp error of equivalent derivations; every component
// that compares instants — the serving engine, the fault injector, the
// cluster front end and the deadline checks of workload and metrics —
// uses the same Eps so one request's timeline is judged consistently
// across layers.
//
// The package sits below both internal/sim and internal/fault (sim
// imports fault, so the shared helper cannot live in either).
package simtime

// Eps is the simulated-time comparison tolerance in seconds. It is far
// below any modeled duration (the shortest is a single accelerator cycle,
// 1 ns at 1 GHz) and far above the relative float64 error of the sub-hour
// timelines the simulations produce.
const Eps = 1e-12

// Due reports whether an event scheduled at instant `at` is due at the
// current time `now`: at <= now within Eps. A finish meets its deadline
// when Due(finish, deadline).
func Due(at, now float64) bool { return at <= now+Eps }

// After reports whether instant t is strictly later than limit, beyond
// Eps. It is the negation of Due(t, limit).
func After(t, limit float64) bool { return t > limit+Eps }

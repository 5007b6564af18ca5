package memspace

import "fmt"

// ContractKind names the part of its dependence contract a task body broke.
type ContractKind string

// The ways a task body can break the contract its clauses declare. The
// store detects UndeclaredAccess itself; the runtime detects the other two
// around the body.
const (
	// UndeclaredAccess: the body reached bytes outside every declared region.
	UndeclaredAccess ContractKind = "undeclared access"
	// WriteToIn: the body changed bytes that only In clauses cover.
	WriteToIn ContractKind = "write to In"
	// UnusedClause: the body accessed data but never touched this declared
	// region, which then orders and moves data for nothing.
	UnusedClause ContractKind = "unused clause"
)

// ContractError reports a task body that broke the dependence contract of
// its clauses. The runtime builds the task graph and the directory from the
// clauses alone, so such a body computes on data the runtime never ordered
// or moved for it.
type ContractError struct {
	Task   string
	Region Region
	Kind   ContractKind
}

func (e *ContractError) Error() string {
	return fmt.Sprintf("memspace: %s broke its dependence contract: %s %v", e.Task, e.Kind, e.Region)
}

// contract is the declared access set an armed store checks Bytes against.
type contract struct {
	task     string
	declared []Region
	union    []Region // Canonicalize(declared): adjacent regions coalesce
	touched  []bool   // per declared region: some Bytes call intersected it
}

// Arm makes every Bytes call until Disarm check its region against the
// regions task declared: one outside their union panics with a
// ContractError of kind UndeclaredAccess. A sub-range of a declared region
// passes, and so does a range spanning adjacent declared regions.
func (s *Store) Arm(task string, declared []Region) {
	s.contract = &contract{task: task, declared: declared,
		union: Canonicalize(declared), touched: make([]bool, len(declared))}
}

// Disarm ends the contract Arm set and reports, per declared region,
// whether some Bytes call intersected it.
func (s *Store) Disarm() (touched []bool) {
	touched, s.contract = s.contract.touched, nil
	return touched
}

func (c *contract) check(r Region) {
	inside := false
	for _, u := range c.union {
		if u.Contains(r) {
			inside = true
			break
		}
	}
	if !inside {
		panic(&ContractError{Task: c.task, Region: r, Kind: UndeclaredAccess})
	}
	for i, d := range c.declared {
		if d.Overlaps(r) {
			c.touched[i] = true
		}
	}
}

// Package lib seeds the unused checker. The corpus is its own module, so
// package caller and cmd/app reach lib through the loader's importer, the
// way one package of the real module reaches another.
package lib

// Used is called from package caller: a cross-package caller keeps it.
func Used() int { return helper() }

// helper is kept by Used, a caller in its own package.
func helper() int { return 1 }

// OnlyTested is referenced only by lib_test.go.
func OnlyTested() int { return 2 } // want "func OnlyTested is referenced only by tests"

// Nowhere is referenced by nothing at all.
const Nowhere = 3 // want "const Nowhere is never referenced"

// Bench is called only from the nested benchmark module in _perfbench/.
func Bench() int { return 4 }

// Shape is an interface that caller calls.
type Shape interface{ Area() int }

// Square is reached through Shape.
type Square struct{ Side int }

// Area is kept by the interface call in caller.Sum.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter is a method that nothing calls.
func (s Square) Perimeter() int { return 4 * s.Side } // want "method Square.Perimeter is never referenced"

// Name is printed by caller through fmt.
type Name string

// String is kept because Name implements fmt.Stringer.
func (n Name) String() string { return "name " + string(n) }

// Suppressed is referenced by nothing, and says why.
//
//lint:ignore unused proves that a justified finding is not reported
func Suppressed() {}

// Package caller calls lib from another package of the corpus module.
package caller

import (
	"fmt"

	"unusedcorpus/lib"
)

// Sum adds lib.Used to the area of every shape, calling Area through the
// interface.
func Sum(shapes []lib.Shape) int {
	total := lib.Used()
	for _, s := range shapes {
		total += s.Area()
	}
	return total
}

// Describe formats a lib.Name through fmt, which calls its String method.
func Describe(n lib.Name) string { return fmt.Sprint(n) }

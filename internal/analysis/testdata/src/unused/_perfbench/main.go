// Command perfbench stands in for the nested benchmark module: the loader
// skips it, and the unused checker counts it as a caller.
package main

import (
	"fmt"

	"unusedcorpus/lib"
)

func main() { fmt.Println(lib.Bench()) }

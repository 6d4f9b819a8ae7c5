// Command app is an entry point: never reported, always a caller.
package main

import (
	"fmt"

	"unusedcorpus/caller"
	"unusedcorpus/lib"
)

func main() {
	fmt.Println(caller.Sum([]lib.Shape{lib.Square{Side: 2}}), caller.Describe("x"))
}

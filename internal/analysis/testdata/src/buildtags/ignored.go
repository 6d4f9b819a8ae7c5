//go:build ignore

// A standalone program in the package's directory, as `go run file.go`
// runs it: `go build` leaves it out of the package.
package main

func main() {}

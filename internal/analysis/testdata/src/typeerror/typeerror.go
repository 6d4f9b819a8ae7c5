// Package typeerror does not type check.
package typeerror

// N is declared as an int and given a string.
var N int = "not an int"

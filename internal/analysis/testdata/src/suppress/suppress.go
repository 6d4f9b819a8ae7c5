// Package suppress proves the //lint:ignore mechanism: the violation below
// must be reported when its checker runs under another name, and silenced
// when it runs under its own.
package suppress

import "time"

func wallClock() int64 {
	//lint:ignore detrand deliberate violation proving the suppression mechanism
	return time.Now().Unix()
}

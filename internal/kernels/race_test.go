//go:build race

package kernels

// Under the race detector the compiler makes c, not the product, the
// destination of sgemmGo's add, so sgemmGo's NaN payloads are not the
// optimised build's, which the assembly reproduces.
func init() { raceBuild = true }

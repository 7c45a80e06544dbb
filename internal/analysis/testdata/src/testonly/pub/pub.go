// Package pub lies outside internal/, so testonly does not look at it.
package pub

// Orphan has no references at all.
func Orphan() {}

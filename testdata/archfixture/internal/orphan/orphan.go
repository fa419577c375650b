// Package orphan has no importer: a planted violation of the package rule.
package orphan

func unexported() {}

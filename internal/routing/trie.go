// Package routing implements the control-plane substrate of the simulator:
// IS-IS-like shortest-path routing over the Abilene backbone (Dijkstra with
// deterministic ECMP tie-breaking), a binary prefix trie in the style of a
// BGP RIB compiled into a flat longest-prefix-match table, and the
// ingress/egress resolution procedure the paper uses to aggregate IP flows
// into OD flows (router configuration files for ingress, BGP/IS-IS tables
// for egress, computed once per day).
package routing

import (
	"netwide/internal/ipaddr"
)

// Trie is a binary (one bit per level) prefix trie mapping IPv4 prefixes to
// values of type V: the RIB a Resolver compiles its flat lookup table from
// (Walk visits the prefixes in the order compileFlat paints them). The zero
// value is an empty trie ready to use. It is not safe for concurrent
// mutation.
type Trie[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// Insert adds or replaces the value for prefix p.
func (t *Trie[V]) Insert(p ipaddr.Prefix, v V) {
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	n := t.root
	for i := 0; i < p.Bits; i++ {
		b := (p.Addr >> (31 - i)) & 1
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.val, n.set = v, true
}

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.size }

// Walk visits every stored prefix/value pair in address order.
func (t *Trie[V]) Walk(fn func(ipaddr.Prefix, V)) {
	var rec func(n *trieNode[V], addr ipaddr.Addr, depth int)
	rec = func(n *trieNode[V], addr ipaddr.Addr, depth int) {
		if n == nil {
			return
		}
		if n.set {
			p, _ := ipaddr.NewPrefix(addr, depth)
			fn(p, n.val)
		}
		if depth == 32 {
			return
		}
		rec(n.child[0], addr, depth+1)
		rec(n.child[1], addr|1<<(31-depth), depth+1)
	}
	rec(t.root, 0, 0)
}

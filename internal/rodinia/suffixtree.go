package rodinia

// suffixTree is an Ukkonen-built suffix tree over a byte string. MUMmerGPU
// stores the reference sequence as a suffix tree on the GPU and walks it
// per query; we build the same structure on the host (as MUMmerGPU does)
// and the kernel mirrors the per-query walk.
type suffixTree struct {
	text []byte
	// slot maps a byte to its column in next, -1 for a byte the text lacks;
	// width is the number of distinct bytes in the text.
	slot  [256]int16
	width int32
	// Nodes. Node 0 is the root.
	next  []int32 // child by first edge character: next[node*width+slot[c]]; 0 = none (the root is nobody's child)
	start []int32 // edge label start in text
	end   []int32 // edge label end (exclusive); -1 = open leaf
	link  []int32 // suffix link
}

// newSuffixTree builds the suffix tree of text (a unique terminator is
// appended internally), using Ukkonen's online algorithm.
func newSuffixTree(text []byte) *suffixTree {
	t := &suffixTree{text: append(append([]byte(nil), text...), 0)}
	for i := range t.slot {
		t.slot[i] = -1
	}
	for _, c := range t.text {
		if t.slot[c] < 0 {
			t.slot[c] = int16(t.width)
			t.width++
		}
	}
	// Ukkonen's tree has at most 2n nodes for a text of length n.
	maxNodes := 2 * len(t.text)
	t.next = make([]int32, 0, maxNodes*int(t.width))
	t.start = make([]int32, 0, maxNodes)
	t.end = make([]int32, 0, maxNodes)
	t.link = make([]int32, 0, maxNodes)
	t.addNode(0, 0) // root

	var (
		activeNode int32
		activeEdge int32 // index in text of the active edge's first char
		activeLen  int32
		remainder  int32
	)
	n := int32(len(t.text))
	for pos := int32(0); pos < n; pos++ {
		lastNew := int32(-1)
		remainder++
		for remainder > 0 {
			if activeLen == 0 {
				activeEdge = pos
			}
			child := t.child(activeNode, t.text[activeEdge])
			if child == 0 {
				// Rule 2a: new leaf straight off the active node.
				leaf := t.addNode(pos, -1)
				t.setChild(activeNode, t.text[activeEdge], leaf)
				if lastNew >= 0 {
					t.link[lastNew] = activeNode
					lastNew = -1
				}
			} else {
				// Walk down if the active length covers the edge.
				edgeLen := t.edgeLen(child, pos+1)
				if activeLen >= edgeLen {
					activeNode = child
					activeEdge += edgeLen
					activeLen -= edgeLen
					continue
				}
				if t.text[t.start[child]+activeLen] == t.text[pos] {
					// Rule 3: already present; extend the active point.
					if lastNew >= 0 && activeNode != 0 {
						t.link[lastNew] = activeNode
						lastNew = -1
					}
					activeLen++
					break
				}
				// Rule 2b: split the edge and add a leaf.
				split := t.addNode(t.start[child], t.start[child]+activeLen)
				t.setChild(activeNode, t.text[activeEdge], split)
				leaf := t.addNode(pos, -1)
				t.setChild(split, t.text[pos], leaf)
				t.start[child] += activeLen
				t.setChild(split, t.text[t.start[child]], child)
				if lastNew >= 0 {
					t.link[lastNew] = split
				}
				lastNew = split
			}
			remainder--
			if activeNode == 0 && activeLen > 0 {
				activeLen--
				activeEdge = pos - remainder + 1
			} else if activeNode != 0 {
				activeNode = t.link[activeNode]
			}
		}
	}
	return t
}

func (t *suffixTree) addNode(start, end int32) int32 {
	t.next = append(t.next, make([]int32, t.width)...)
	t.start = append(t.start, start)
	t.end = append(t.end, end)
	t.link = append(t.link, 0)
	return int32(len(t.start) - 1)
}

// child returns node's child whose edge starts with c, or 0 for none.
func (t *suffixTree) child(node int32, c byte) int32 {
	s := t.slot[c]
	if s < 0 {
		return 0
	}
	return t.next[node*t.width+int32(s)]
}

// setChild links node to its child whose edge starts with c, a byte of the
// text.
func (t *suffixTree) setChild(node int32, c byte, child int32) {
	t.next[node*t.width+int32(t.slot[c])] = child
}

func (t *suffixTree) edgeLen(node, pos int32) int32 {
	e := t.end[node]
	if e < 0 || e > pos {
		e = pos
	}
	return e - t.start[node]
}

// nodes returns the node count (for sizing device mirrors).
func (t *suffixTree) nodes() int { return len(t.start) }

// matchLen walks the tree from the root matching query[from:] and returns
// the length of the longest prefix that occurs in the text, along with the
// number of tree nodes visited (the kernel's pointer-chasing cost).
func (t *suffixTree) matchLen(query []byte, from int) (length, hops int) {
	node := int32(0)
	i := from
	for i < len(query) {
		child := t.child(node, query[i])
		if child == 0 {
			return i - from, hops
		}
		hops++
		e := t.end[child]
		if e < 0 {
			e = int32(len(t.text))
		}
		for p := t.start[child]; p < e && i < len(query); p++ {
			if t.text[p] != query[i] {
				return i - from, hops
			}
			i++
		}
		node = child
	}
	return len(query) - from, hops
}

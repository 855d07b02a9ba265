import numpy as np
import pytest

from geoattn import autodiff as ad

# the PASS lines of tests/test_acceptance.py, in the order the tests ran
HEADLINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if HEADLINES:
        terminalreporter.section("acceptance headlines")
        for line in HEADLINES:
            terminalreporter.write_line(line)


def numeric_grad(fn, arrays, h=1e-5):
    """Central finite differences of a scalar function of numpy arrays."""
    grads = []
    for target in range(len(arrays)):
        g = np.zeros_like(arrays[target])
        flat = g.reshape(-1)
        base = [a.copy() for a in arrays]
        for i in range(flat.size):
            plus = [a.copy() for a in base]
            minus = [a.copy() for a in base]
            plus[target].reshape(-1)[i] += h
            minus[target].reshape(-1)[i] -= h
            flat[i] = (fn(*plus) - fn(*minus)) / (2 * h)
        grads.append(g)
    return grads


def tracked_nodes(root):
    """Every tracked node below ``root`` (``root`` included), each once."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if node.requires_grad and id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def held_arrays(root):
    """Every distinct buffer the graph below ``root`` holds: the data of
    ``root`` and of the leaves (other nodes hold none) and the arrays the vjp
    closures keep (through tuples, tensors and nested closures), a view
    standing for the array it views."""
    nodes = tracked_nodes(root)
    buffers, seen = {}, set()
    stack = [node.data for node in nodes] + [f for node in nodes for f in node.vjps]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj
        elif isinstance(obj, ad.Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return list(buffers.values())


def rel_err(a, b):
    return np.max(np.abs(a - b)) / (np.max(np.abs(b)) + 1e-12)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

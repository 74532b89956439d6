"""apolarium: exact-arithmetic apolarity, catalecticants, and structured tensors."""

__version__ = "0.1.0"
